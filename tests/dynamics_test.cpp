// Unit tests for fault-injection dynamics: ImpairmentSchedule validation
// edge cases, Link behaviour under each window kind, schedule/capture
// boundary conditions, and the seeded random generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "net/dynamics.hpp"
#include "net/link.hpp"
#include "net/loss_model.hpp"
#include "net/segment.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace vstream::net {
namespace {

using sim::Duration;
using sim::Rng;
using sim::SimTime;
using sim::Simulator;

TcpSegment make_data_segment(std::uint32_t payload, std::uint64_t seq = 0) {
  TcpSegment s;
  s.seq = seq;
  s.payload_bytes = payload;
  s.flags = TcpFlag::kAck;
  return s;
}

SimTime at_s(double s) { return SimTime::from_seconds(s); }
Duration for_s(double s) { return Duration::seconds(s); }

// ---- schedule validation --------------------------------------------------

TEST(ImpairmentScheduleTest, EmptyScheduleIsValidAndHarmless) {
  ImpairmentSchedule schedule;
  EXPECT_TRUE(schedule.empty());
  EXPECT_NO_THROW(schedule.validate());

  Simulator sim;
  Rng rng{1};
  Link::Config cfg{.rate_bps = 8e6, .prop_delay = Duration::zero(), .queue_limit_bytes = 100000};
  Link link{sim, cfg, nullptr, rng};
  int delivered = 0;
  link.set_receiver([&](const TcpSegment&) { ++delivered; });
  link.set_impairments(schedule);
  link.send(make_data_segment(960));
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.counters().dropped_fault, 0U);
  EXPECT_EQ(link.counters().fault_windows, 0U);
}

TEST(ImpairmentScheduleTest, ZeroDurationBlackoutIsLegalNoOp) {
  ImpairmentSchedule schedule;
  schedule.blackout(at_s(0.5), Duration::zero());
  EXPECT_NO_THROW(schedule.validate());

  Simulator sim;
  Rng rng{1};
  Link::Config cfg{.rate_bps = 8e6, .prop_delay = Duration::zero(), .queue_limit_bytes = 100000};
  Link link{sim, cfg, nullptr, rng};
  int delivered = 0;
  link.set_receiver([&](const TcpSegment&) { ++delivered; });
  link.set_impairments(schedule);
  // The begin/end transitions fire back-to-back at t=0.5; a segment sent
  // afterwards must ride a healthy link.
  sim.schedule_at(at_s(1.0), [&] { link.send(make_data_segment(960)); });
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_FALSE(link.blackout_active());
  EXPECT_EQ(link.counters().dropped_fault, 0U);
}

TEST(ImpairmentScheduleTest, SameKindOverlapRejected) {
  ImpairmentSchedule schedule;
  schedule.blackout(at_s(1.0), for_s(2.0)).blackout(at_s(2.0), for_s(2.0));
  EXPECT_THROW(schedule.validate(), std::invalid_argument);

  // Link::set_impairments validates too, so a bad schedule can't arm.
  Simulator sim;
  Rng rng{1};
  Link link{sim, Link::Config{}, nullptr, rng};
  EXPECT_THROW(link.set_impairments(schedule), std::invalid_argument);
}

TEST(ImpairmentScheduleTest, HalfOpenWindowsMayTouch) {
  // [1, 3) followed by [3, 5): the end of one is the start of the next.
  ImpairmentSchedule schedule;
  schedule.rate_scale(at_s(1.0), for_s(2.0), 0.5).rate_scale(at_s(3.0), for_s(2.0), 0.25);
  EXPECT_NO_THROW(schedule.validate());
}

TEST(ImpairmentScheduleTest, DifferentKindsMayOverlap) {
  ImpairmentSchedule schedule;
  schedule.rate_scale(at_s(1.0), for_s(4.0), 0.5)
      .delay_spike(at_s(2.0), for_s(4.0), Duration::millis(50))
      .burst_loss(at_s(3.0), for_s(4.0), 0.1);
  EXPECT_NO_THROW(schedule.validate());
}

TEST(ImpairmentScheduleTest, ParameterRangesEnforced) {
  EXPECT_THROW(ImpairmentSchedule{}.rate_scale(at_s(0), for_s(1), 0.0).validate(),
               std::invalid_argument);
  EXPECT_THROW(ImpairmentSchedule{}.rate_scale(at_s(0), for_s(-1), 0.5).validate(),
               std::invalid_argument);
  EXPECT_THROW(ImpairmentSchedule{}.burst_loss(at_s(0), for_s(1), 1.5).validate(),
               std::invalid_argument);
  EXPECT_THROW(ImpairmentSchedule{}.burst_loss(at_s(0), for_s(1), 0.1, 0.0).validate(),
               std::invalid_argument);
  EXPECT_THROW(ImpairmentSchedule{}.delay_spike(at_s(0), for_s(1), Duration::millis(-5)).validate(),
               std::invalid_argument);
}

TEST(ImpairmentScheduleTest, LinkFlapExpandsToAlternatingBlackouts) {
  ImpairmentSchedule schedule;
  schedule.link_flap(at_s(1.0), for_s(0.5), for_s(1.0), 3);
  EXPECT_NO_THROW(schedule.validate());
  ASSERT_EQ(schedule.windows().size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& w = schedule.windows()[i];
    EXPECT_EQ(w.kind, ImpairmentKind::kBlackout);
    EXPECT_NEAR(w.start.to_seconds(), 1.0 + 1.5 * static_cast<double>(i), 1e-9);
    EXPECT_NEAR(w.duration.to_seconds(), 0.5, 1e-9);
  }
}

// ---- link behaviour under windows -----------------------------------------

TEST(LinkDynamicsTest, BlackoutDropsEverythingThenRecovers) {
  Simulator sim;
  Rng rng{1};
  Link::Config cfg{.rate_bps = 8e6, .prop_delay = Duration::zero(), .queue_limit_bytes = 100000};
  Link link{sim, cfg, nullptr, rng};
  int delivered = 0;
  link.set_receiver([&](const TcpSegment&) { ++delivered; });
  std::vector<LinkEvent> events;
  link.set_tap([&](SimTime, const TcpSegment&, Direction, LinkEvent e) { events.push_back(e); });

  ImpairmentSchedule schedule;
  schedule.blackout(at_s(1.0), for_s(2.0));
  link.set_impairments(schedule);

  sim.schedule_at(at_s(0.5), [&] { link.send(make_data_segment(960)); });  // healthy
  sim.schedule_at(at_s(2.0), [&] { link.send(make_data_segment(960)); });  // mid-blackout
  sim.schedule_at(at_s(3.5), [&] { link.send(make_data_segment(960)); });  // recovered
  sim.run();

  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.counters().dropped_fault, 1U);
  EXPECT_EQ(link.counters().fault_windows, 1U);
  EXPECT_FALSE(link.blackout_active());
  // The mid-blackout offer surfaces as a kDropFault tap event.
  EXPECT_EQ(std::count(events.begin(), events.end(), LinkEvent::kDropFault), 1);
}

TEST(LinkDynamicsTest, ScheduleEndingMidBlackoutLeavesLinkDown) {
  // The run stops before the blackout's end transition: the link must still
  // be down at the horizon, and nothing after the horizon is required to
  // fire. This is the "schedule ends mid-window" boundary case.
  Simulator sim;
  Rng rng{1};
  Link::Config cfg{.rate_bps = 8e6, .prop_delay = Duration::zero(), .queue_limit_bytes = 100000};
  Link link{sim, cfg, nullptr, rng};
  int delivered = 0;
  link.set_receiver([&](const TcpSegment&) { ++delivered; });

  ImpairmentSchedule schedule;
  schedule.blackout(at_s(1.0), for_s(100.0));
  link.set_impairments(schedule);

  sim.schedule_at(at_s(2.0), [&] { link.send(make_data_segment(960)); });
  sim.run_until(at_s(5.0));

  EXPECT_TRUE(link.blackout_active());
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.counters().dropped_fault, 1U);
}

TEST(LinkDynamicsTest, RateScaleHalvesEffectiveRateInsideWindowOnly) {
  Simulator sim;
  Rng rng{1};
  Link::Config cfg{.rate_bps = 8e6, .prop_delay = Duration::zero(), .queue_limit_bytes = 100000};
  Link link{sim, cfg, nullptr, rng};
  std::vector<double> arrivals;
  link.set_receiver([&](const TcpSegment&) { arrivals.push_back(sim.now().to_seconds()); });

  ImpairmentSchedule schedule;
  schedule.rate_scale(at_s(1.0), for_s(1.0), 0.5);
  link.set_impairments(schedule);

  // 960-byte payload -> 1000 wire bytes -> 1 ms at 8 Mbps, 2 ms at 4 Mbps.
  sim.schedule_at(at_s(0.5), [&] {
    EXPECT_NEAR(link.effective_rate_bps(), 8e6, 1e-6);
    link.send(make_data_segment(960));
  });
  sim.schedule_at(at_s(1.5), [&] {
    EXPECT_NEAR(link.effective_rate_bps(), 4e6, 1e-6);
    link.send(make_data_segment(960));
  });
  sim.schedule_at(at_s(2.5), [&] {
    EXPECT_NEAR(link.effective_rate_bps(), 8e6, 1e-6);
    link.send(make_data_segment(960));
  });
  sim.run();

  ASSERT_EQ(arrivals.size(), 3U);
  EXPECT_NEAR(arrivals[0], 0.501, 1e-9);
  EXPECT_NEAR(arrivals[1], 1.502, 1e-9);
  EXPECT_NEAR(arrivals[2], 2.501, 1e-9);
}

TEST(LinkDynamicsTest, DelaySpikeAddsPropagationInsideWindow) {
  Simulator sim;
  Rng rng{1};
  Link::Config cfg{.rate_bps = 8e6, .prop_delay = Duration::millis(10),
                   .queue_limit_bytes = 100000};
  Link link{sim, cfg, nullptr, rng};
  std::vector<double> arrivals;
  link.set_receiver([&](const TcpSegment&) { arrivals.push_back(sim.now().to_seconds()); });

  ImpairmentSchedule schedule;
  schedule.delay_spike(at_s(1.0), for_s(1.0), Duration::millis(100));
  link.set_impairments(schedule);

  sim.schedule_at(at_s(0.5), [&] { link.send(make_data_segment(960)); });
  sim.schedule_at(at_s(1.5), [&] { link.send(make_data_segment(960)); });
  sim.schedule_at(at_s(2.5), [&] { link.send(make_data_segment(960)); });
  sim.run();

  ASSERT_EQ(arrivals.size(), 3U);
  EXPECT_NEAR(arrivals[0], 0.511, 1e-9);  // 1 ms serialisation + 10 ms prop
  EXPECT_NEAR(arrivals[1], 1.611, 1e-9);  // + the 100 ms spike
  EXPECT_NEAR(arrivals[2], 2.511, 1e-9);
}

TEST(LinkDynamicsTest, BurstLossOverlayDropsInsideWindowOnly) {
  Simulator sim;
  Rng rng{7};
  Link::Config cfg{.rate_bps = 1e9, .prop_delay = Duration::zero(),
                   .queue_limit_bytes = 100000000};
  Link link{sim, cfg, nullptr, rng};
  int inside = 0;
  int outside = 0;
  link.set_receiver([&](const TcpSegment&) {
    const double t = sim.now().to_seconds();
    (t >= 1.0 && t < 2.0 ? inside : outside) += 1;
  });

  ImpairmentSchedule schedule;
  schedule.burst_loss(at_s(1.0), for_s(1.0), /*rate=*/0.5, /*burst_len=*/4.0);
  link.set_impairments(schedule);

  constexpr int kPerPhase = 200;
  for (int i = 0; i < kPerPhase; ++i) {
    sim.schedule_at(at_s(0.5) + Duration::micros(i), [&] { link.send(make_data_segment(100)); });
    sim.schedule_at(at_s(1.5) + Duration::micros(i), [&] { link.send(make_data_segment(100)); });
    sim.schedule_at(at_s(2.5) + Duration::micros(i), [&] { link.send(make_data_segment(100)); });
  }
  sim.run();

  // No base loss model: everything outside the window survives; inside, the
  // 0.5-rate overlay thins deliveries down (generous statistical bounds).
  EXPECT_EQ(outside, 2 * kPerPhase);
  EXPECT_LT(inside, kPerPhase * 3 / 4);
  EXPECT_GT(inside, kPerPhase / 4);
  EXPECT_EQ(link.counters().dropped_loss, static_cast<std::uint64_t>(kPerPhase - inside));
}

TEST(LinkDynamicsTest, GilbertElliottBaseStaysLiveUnderOverlayAndRunsAreTwins) {
  // A burst window layered over a Gilbert-Elliott base composes (either
  // model may drop) rather than replacing it: the base chain keeps dropping
  // outside the window, and the faulted run is exactly reproducible from
  // the seed — the determinism contract for fault injection.
  const auto run_link = [] {
    Simulator sim;
    Rng rng{11};
    Link::Config cfg{.rate_bps = 1e9, .prop_delay = Duration::zero(),
                     .queue_limit_bytes = 100000000};
    GilbertElliottLoss::Params p;
    p.p_good = 0.0;
    p.p_bad = 1.0;
    p.p_good_to_bad = 0.05;
    p.p_bad_to_good = 0.3;
    Link link{sim, cfg, std::make_unique<GilbertElliottLoss>(p), rng};
    std::vector<std::uint64_t> deliveries;
    int delivered_outside = 0;
    link.set_receiver([&](const TcpSegment& s) {
      deliveries.push_back(s.seq);
      const double t = sim.now().to_seconds();
      if (t < 1.0 || t >= 2.0) ++delivered_outside;
    });
    ImpairmentSchedule schedule;
    schedule.burst_loss(at_s(1.0), for_s(1.0), /*rate=*/0.5, /*burst_len=*/4.0);
    link.set_impairments(schedule);
    constexpr int kPackets = 300;
    for (int i = 0; i < kPackets; ++i) {
      sim.schedule_at(at_s(0.01 * i),
                      [&link, i] { link.send(make_data_segment(100, 100ULL * i)); });
    }
    sim.run();
    // 200 of the 300 packets fall outside the window; the base chain's
    // ~14% steady-state loss must have bitten some of them.
    EXPECT_LT(delivered_outside, 200);
    EXPECT_GT(delivered_outside, 100);
    return deliveries;
  };

  EXPECT_EQ(run_link(), run_link());
}

}  // namespace
}  // namespace vstream::net
