// Unit tests for the discrete-event engine, time types and RNG streams.
#include <gtest/gtest.h>

#include <vector>

#include "check/contracts.hpp"
#include "sim/periodic_timer.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace vstream::sim {
namespace {

TEST(DurationTest, ConstructionAndConversion) {
  EXPECT_EQ(Duration::millis(5).count_nanos(), 5'000'000);
  EXPECT_EQ(Duration::micros(7).count_nanos(), 7'000);
  EXPECT_DOUBLE_EQ(Duration::seconds(1.5).to_seconds(), 1.5);
  EXPECT_TRUE(Duration::zero().is_zero());
  EXPECT_TRUE((Duration::zero() - Duration::millis(1)).is_negative());
}

TEST(DurationTest, Arithmetic) {
  const auto a = Duration::millis(100);
  const auto b = Duration::millis(50);
  EXPECT_EQ((a + b).count_nanos(), Duration::millis(150).count_nanos());
  EXPECT_EQ((a - b).count_nanos(), Duration::millis(50).count_nanos());
  EXPECT_EQ((a * std::int64_t{3}).count_nanos(), Duration::millis(300).count_nanos());
  EXPECT_DOUBLE_EQ(a / b, 2.0);
  EXPECT_LT(b, a);
}

TEST(DurationTest, ScalingByDouble) {
  const auto a = Duration::seconds(2.0);
  EXPECT_NEAR((a * 0.25).to_seconds(), 0.5, 1e-12);
}

TEST(SimTimeTest, Arithmetic) {
  const auto t = SimTime::from_seconds(10.0);
  EXPECT_DOUBLE_EQ((t + Duration::seconds(5.0)).to_seconds(), 15.0);
  EXPECT_DOUBLE_EQ((t - SimTime::from_seconds(4.0)).to_seconds(), 6.0);
  EXPECT_LT(SimTime::zero(), t);
}

TEST(TransmissionTimeTest, BasicRates) {
  // 1500 bytes at 12 Mbps = 1 ms.
  EXPECT_NEAR(transmission_time(1500, 12e6).to_seconds(), 0.001, 1e-9);
  EXPECT_EQ(transmission_time(100, 0.0), Duration::max());
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::from_seconds(3.0), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::from_seconds(1.0), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::from_seconds(2.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 3.0);
  EXPECT_EQ(sim.events_processed(), 3U);
}

TEST(SimulatorTest, FifoAmongEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::from_seconds(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_after(Duration::seconds(1.0), [&] {
    sim.schedule_after(Duration::seconds(2.0), [&] { fired_at = sim.now().to_seconds(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(SimulatorTest, RunUntilStopsAtLimit) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::from_seconds(1.0), [&] { ++fired; });
  sim.schedule_at(SimTime::from_seconds(5.0), [&] { ++fired; });
  const auto n = sim.run_until(SimTime::from_seconds(2.0));
  EXPECT_EQ(n, 1U);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  auto h = sim.schedule_after(Duration::seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, MaxEventsPendingTracksQueueHighWater) {
  Simulator sim;
  EXPECT_EQ(sim.max_events_pending(), 0u);
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(SimTime::from_seconds(1.0 + i), [] {});
  }
  EXPECT_EQ(sim.events_pending(), 5u);
  EXPECT_EQ(sim.max_events_pending(), 5u);
  sim.run();
  // Draining the queue does not lower the high-water mark...
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.max_events_pending(), 5u);
  // ...and a shallower refill does not raise it.
  sim.schedule_after(Duration::seconds(1.0), [] {});
  sim.run();
  EXPECT_EQ(sim.max_events_pending(), 5u);
}

#if VSTREAM_CHECK_LEVEL >= 1
TEST(SimulatorTest, PastScheduleViolatesContract) {
  // schedule_at is strict: a past absolute time is a caller bug, not a
  // request to run "now" (schedule_after keeps the clamping semantics).
  Simulator sim;
  bool checked = false;
  sim.schedule_at(SimTime::from_seconds(5.0), [&] {
    EXPECT_THROW(sim.schedule_at(SimTime::from_seconds(1.0), [] {}),
                 check::ContractViolation);
    checked = true;
  });
  sim.run();
  EXPECT_TRUE(checked);
}
#endif

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule_at(SimTime::from_seconds(5.0), [&] {
    sim.schedule_after(Duration::seconds(-3.0),
                       [&] { EXPECT_GE(sim.now().to_seconds(), 5.0); });
  });
  sim.run();
}

TEST(SimulatorTest, EmptyCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(SimTime::zero(), {}), std::invalid_argument);
}

TEST(PeriodicTimerTest, FiresAtPeriod) {
  Simulator sim;
  std::vector<double> times;
  PeriodicTimer timer{sim, Duration::seconds(1.0), [&] { times.push_back(sim.now().to_seconds()); }};
  timer.start();
  sim.run_until(SimTime::from_seconds(3.5));
  timer.stop();
  ASSERT_EQ(times.size(), 3U);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[2], 3.0);
}

TEST(PeriodicTimerTest, StopFromInsideCallback) {
  Simulator sim;
  int count = 0;
  PeriodicTimer* self = nullptr;
  PeriodicTimer timer{sim, Duration::seconds(1.0), [&] {
                        if (++count == 2) self->stop();
                      }};
  self = &timer;
  timer.start();
  sim.run_until(SimTime::from_seconds(10.0));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTimerTest, PeriodChangeTakesEffect) {
  Simulator sim;
  std::vector<double> times;
  PeriodicTimer timer{sim, Duration::seconds(1.0), [&] { times.push_back(sim.now().to_seconds()); }};
  timer.start();
  sim.schedule_at(SimTime::from_seconds(1.5), [&] { timer.set_period(Duration::seconds(2.0)); });
  sim.run_until(SimTime::from_seconds(6.0));
  timer.stop();
  // Fires at 1 and 2 (already scheduled), then the 2 s period applies: 4, 6.
  ASSERT_GE(times.size(), 3U);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
  EXPECT_DOUBLE_EQ(times[2], 4.0);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng parent{42};
  Rng c1 = parent.fork("alpha");
  Rng c2 = parent.fork("beta");
  bool any_diff = false;
  for (int i = 0; i < 32; ++i) {
    if (c1.uniform(0, 1) != c2.uniform(0, 1)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng{7};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng{7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMeanApproximatesInverseRate) {
  Rng rng{11};
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(RngTest, InvalidArgumentsThrow) {
  Rng rng{1};
  EXPECT_THROW((void)rng.uniform(3.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace vstream::sim
