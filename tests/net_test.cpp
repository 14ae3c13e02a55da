// Unit tests for links, loss models, paths and network profiles.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/loss_model.hpp"
#include "net/path.hpp"
#include "net/profile.hpp"
#include "net/segment.hpp"

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

TEST(SegmentTest, WireBytesIncludesHeaders) {
  const auto s = make_data_segment(1000);
  EXPECT_EQ(s.wire_bytes(), 1040U);
}

TEST(SegmentTest, FlagOperations) {
  TcpSegment s;
  s.flags = TcpFlag::kSyn | TcpFlag::kAck;
  EXPECT_TRUE(s.has(TcpFlag::kSyn));
  EXPECT_TRUE(s.has(TcpFlag::kAck));
  EXPECT_FALSE(s.has(TcpFlag::kFin));
  EXPECT_EQ(s.flag_string(), "SA");
  EXPECT_EQ(TcpSegment{}.flag_string(), "-");
}

TEST(SegmentTest, DirectionOpposite) {
  EXPECT_EQ(opposite(Direction::kDown), Direction::kUp);
  EXPECT_EQ(opposite(Direction::kUp), Direction::kDown);
}

TEST(LossModelTest, NoLossNeverDrops) {
  Rng rng{1};
  NoLoss m;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(m.should_drop(rng));
}

TEST(LossModelTest, BernoulliMatchesRate) {
  Rng rng{2};
  BernoulliLoss m{0.1};
  int drops = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    if (m.should_drop(rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / kN, 0.1, 0.01);
}

TEST(LossModelTest, BernoulliValidation) {
  EXPECT_THROW((BernoulliLoss{-0.1}), std::invalid_argument);
  EXPECT_THROW((BernoulliLoss{1.1}), std::invalid_argument);
}

TEST(LossModelTest, GilbertElliottSteadyState) {
  GilbertElliottLoss::Params p;
  p.p_good = 0.001;
  p.p_bad = 0.3;
  p.p_good_to_bad = 0.01;
  p.p_bad_to_good = 0.19;
  GilbertElliottLoss m{p};
  Rng rng{3};
  int drops = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    if (m.should_drop(rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / kN, m.steady_state_loss(), 0.005);
}

TEST(LossModelTest, GilbertElliottProducesBursts) {
  GilbertElliottLoss::Params p;
  p.p_good = 0.0;
  p.p_bad = 1.0;
  p.p_good_to_bad = 0.01;
  p.p_bad_to_good = 0.25;
  GilbertElliottLoss m{p};
  Rng rng{4};
  // With deterministic in-state loss, consecutive drops must appear.
  int max_run = 0;
  int run = 0;
  for (int i = 0; i < 100000; ++i) {
    if (m.should_drop(rng)) {
      ++run;
      max_run = std::max(max_run, run);
    } else {
      run = 0;
    }
  }
  EXPECT_GE(max_run, 3);
}

TEST(LossModelTest, FactoryPicksModel) {
  EXPECT_NE(dynamic_cast<NoLoss*>(make_loss(0.0).get()), nullptr);
  EXPECT_NE(dynamic_cast<BernoulliLoss*>(make_loss(0.01).get()), nullptr);
}

TEST(LinkTest, DeliversWithSerializationPlusPropagation) {
  Simulator sim;
  Rng rng{1};
  Link::Config cfg{.rate_bps = 8e6, .prop_delay = Duration::millis(10),
                   .queue_limit_bytes = 100000};
  Link link{sim, cfg, nullptr, std::move(rng)};
  std::vector<double> arrivals;
  link.set_receiver([&](const TcpSegment&) { arrivals.push_back(sim.now().to_seconds()); });
  // 960-byte payload -> 1000 wire bytes -> 1 ms at 8 Mbps, plus 10 ms prop.
  link.send(make_data_segment(960));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1U);
  EXPECT_NEAR(arrivals[0], 0.011, 1e-9);
}

TEST(LinkTest, SerializesBackToBack) {
  Simulator sim;
  Rng rng{1};
  Link::Config cfg{.rate_bps = 8e6, .prop_delay = Duration::zero(), .queue_limit_bytes = 100000};
  Link link{sim, cfg, nullptr, std::move(rng)};
  std::vector<double> arrivals;
  link.set_receiver([&](const TcpSegment&) { arrivals.push_back(sim.now().to_seconds()); });
  for (int i = 0; i < 3; ++i) link.send(make_data_segment(960));
  sim.run();
  ASSERT_EQ(arrivals.size(), 3U);
  EXPECT_NEAR(arrivals[0], 0.001, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.002, 1e-9);
  EXPECT_NEAR(arrivals[2], 0.003, 1e-9);
}

TEST(LinkTest, DropTailWhenQueueFull) {
  Simulator sim;
  Rng rng{1};
  Link::Config cfg{.rate_bps = 8e6, .prop_delay = Duration::zero(), .queue_limit_bytes = 2100};
  Link link{sim, cfg, nullptr, std::move(rng)};
  int delivered = 0;
  link.set_receiver([&](const TcpSegment&) { ++delivered; });
  // Each segment is 1040 wire bytes; the third exceeds the 2100-byte queue.
  EXPECT_TRUE(link.send(make_data_segment(1000)));
  EXPECT_TRUE(link.send(make_data_segment(1000)));
  EXPECT_FALSE(link.send(make_data_segment(1000)));
  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.counters().dropped_queue, 1U);
  // Queue drains -> accepts again.
  EXPECT_TRUE(link.send(make_data_segment(1000)));
  sim.run();
  EXPECT_EQ(delivered, 3);
}

TEST(LinkTest, LossModelDropsOnWire) {
  Simulator sim;
  Rng rng{5};
  Link::Config cfg{.rate_bps = 1e9, .prop_delay = Duration::zero(),
                   .queue_limit_bytes = 100000000};
  Link link{sim, cfg, std::make_unique<BernoulliLoss>(1.0), std::move(rng)};
  int delivered = 0;
  link.set_receiver([&](const TcpSegment&) { ++delivered; });
  link.send(make_data_segment(100));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.counters().dropped_loss, 1U);
}

TEST(LinkTest, TapSeesLifecycle) {
  Simulator sim;
  Rng rng{1};
  Link::Config cfg{.rate_bps = 1e9, .prop_delay = Duration::millis(1),
                   .queue_limit_bytes = 1000000};
  Link link{sim, cfg, nullptr, std::move(rng)};
  link.set_receiver([](const TcpSegment&) {});
  std::vector<LinkEvent> events;
  link.set_tap([&](SimTime, const TcpSegment&, Direction, LinkEvent e) { events.push_back(e); });
  link.send(make_data_segment(100));
  sim.run();
  ASSERT_EQ(events.size(), 3U);
  EXPECT_EQ(events[0], LinkEvent::kEnqueue);
  EXPECT_EQ(events[1], LinkEvent::kTransmit);
  EXPECT_EQ(events[2], LinkEvent::kDeliver);
}

TEST(LinkTest, InFlightCountsQueuedAndPropagatingSegments) {
  // Conservation: enqueued == delivered + dropped_loss + in_flight at every
  // instant. Queue drops never enter, so they never count as in flight.
  Simulator sim;
  Rng rng{3};
  Link::Config cfg{.rate_bps = 8e6, .prop_delay = Duration::millis(5), .queue_limit_bytes = 2100};
  Link link{sim, cfg, std::make_unique<BernoulliLoss>(0.5), std::move(rng)};
  link.set_receiver([](const TcpSegment&) {});
  EXPECT_EQ(link.in_flight(), 0U);
  EXPECT_TRUE(link.send(make_data_segment(1000)));
  EXPECT_TRUE(link.send(make_data_segment(1000)));
  EXPECT_FALSE(link.send(make_data_segment(1000)));  // queue full
  EXPECT_EQ(link.in_flight(), 2U);
  link.audit_conservation();
  // First segment serialised (1.04 ms) and propagating; second still queued.
  sim.run_until(SimTime::from_seconds(0.0015));
  EXPECT_EQ(link.queued_bytes(), 1040U);
  const auto& c = link.counters();
  EXPECT_EQ(c.enqueued, c.delivered + c.dropped_loss + link.in_flight());
  link.audit_conservation();
  sim.run();
  EXPECT_EQ(link.in_flight(), 0U);
  EXPECT_EQ(c.enqueued, 2U);
  EXPECT_EQ(c.delivered + c.dropped_loss, 2U);
  EXPECT_EQ(c.dropped_queue, 1U);
  link.audit_conservation();
}

TEST(LinkTest, SendWithoutReceiverThrows) {
  Simulator sim;
  Rng rng{1};
  Link link{sim, Link::Config{}, nullptr, std::move(rng)};
  EXPECT_THROW(link.send(make_data_segment(1)), std::logic_error);
}

TEST(LinkTest, InvalidRateThrows) {
  Simulator sim;
  Rng rng{1};
  Link::Config cfg{};
  cfg.rate_bps = 0.0;
  EXPECT_THROW((Link{sim, cfg, nullptr, std::move(rng)}), std::invalid_argument);
}

TEST(ProfileTest, AllVantagesHaveSaneParameters) {
  for (const auto v : kAllVantages) {
    const auto p = profile_for(v);
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.down_bps, 0.0);
    EXPECT_GT(p.up_bps, 0.0);
    EXPECT_GT(p.base_rtt.count_nanos(), 0);
    EXPECT_GE(p.loss_rate, 0.0);
    EXPECT_LT(p.loss_rate, 0.05);
    EXPECT_GT(p.queue_bytes, 0U);
    EXPECT_EQ(p.name, vantage_name(v));
  }
}

TEST(ProfileTest, PaperRatesMatchSection42) {
  EXPECT_DOUBLE_EQ(profile_for(Vantage::kResearch).down_mbps(), 100.0);
  EXPECT_DOUBLE_EQ(profile_for(Vantage::kResidence).down_mbps(), 7.7);
  EXPECT_DOUBLE_EQ(profile_for(Vantage::kResidence).up_bps, 1.2e6);
  EXPECT_DOUBLE_EQ(profile_for(Vantage::kAcademic).down_mbps(), 100.0);
  EXPECT_DOUBLE_EQ(profile_for(Vantage::kHome).down_mbps(), 20.0);
  EXPECT_DOUBLE_EQ(profile_for(Vantage::kHome).up_bps, 3e6);
}

TEST(ProfileTest, LossCalibrationOrdering) {
  // Residence has the paper's highest retransmission median, Academic next.
  const double research = profile_for(Vantage::kResearch).loss_rate;
  const double residence = profile_for(Vantage::kResidence).loss_rate;
  const double academic = profile_for(Vantage::kAcademic).loss_rate;
  EXPECT_GT(residence, academic);
  EXPECT_GT(academic, research);
}

TEST(PathTest, RoutesBothDirections) {
  Simulator sim;
  Rng rng{1};
  Path path{sim, profile_for(Vantage::kResearch), rng};
  int down_count = 0;
  int up_count = 0;
  path.down().set_receiver([&](const TcpSegment&) { ++down_count; });
  path.up().set_receiver([&](const TcpSegment&) { ++up_count; });
  path.down().send(make_data_segment(100));
  path.up().send(make_data_segment(0));
  sim.run();
  EXPECT_EQ(down_count, 1);
  EXPECT_EQ(up_count, 1);
}

TEST(PathTest, UnloadedRttNearProfileBaseRtt) {
  Simulator sim;
  Rng rng{1};
  const auto profile = profile_for(Vantage::kResearch);
  Path path{sim, profile, rng};
  const double rtt = path.unloaded_rtt().to_seconds();
  EXPECT_GT(rtt, profile.base_rtt.to_seconds() * 0.99);
  EXPECT_LT(rtt, profile.base_rtt.to_seconds() * 1.2);
}

TEST(PathTest, TapTagsDirections) {
  Simulator sim;
  Rng rng{1};
  Path path{sim, profile_for(Vantage::kResearch), rng};
  path.down().set_receiver([](const TcpSegment&) {});
  path.up().set_receiver([](const TcpSegment&) {});
  std::vector<Direction> dirs;
  path.set_tap([&](SimTime, const TcpSegment&, Direction d, LinkEvent e) {
    if (e == LinkEvent::kDeliver) dirs.push_back(d);
  });
  path.down().send(make_data_segment(10));
  path.up().send(make_data_segment(10));
  sim.run();
  ASSERT_EQ(dirs.size(), 2U);
  EXPECT_NE(dirs[0], dirs[1]);  // one delivery per direction
}

}  // namespace
}  // namespace vstream::net
