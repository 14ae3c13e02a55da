// Tests for the TCP endpoint/connection implementation: handshake, bulk
// transfer, flow control (zero window), congestion control reactions to
// loss, retransmission accounting, tags, FIN handling, idle restart.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/path.hpp"
#include "sim/periodic_timer.hpp"
#include "net/profile.hpp"
#include "tcp/connection.hpp"

namespace vstream::net {

// gtest prints a param into each listed test name; without this it would
// dump the enum's byte.
void PrintTo(Vantage v, std::ostream* os) { *os << vantage_name(v); }

}  // namespace vstream::net

namespace vstream::tcp {
namespace {

using net::Direction;
using net::LinkEvent;
using net::TcpFlag;
using net::TcpSegment;
using net::Vantage;
using sim::Duration;
using sim::Rng;
using sim::SimTime;
using sim::Simulator;

struct Harness {
  explicit Harness(net::NetworkProfile profile, std::uint64_t seed = 42)
      : rng{seed}, path{sim, profile, rng}, fabric{sim, path} {}

  explicit Harness(Vantage v = Vantage::kResearch, std::uint64_t seed = 42)
      : Harness{net::profile_for(v), seed} {}

  Simulator sim;
  Rng rng;
  net::Path path;
  Fabric fabric;
};

net::NetworkProfile lossless_profile() {
  auto p = net::profile_for(Vantage::kResearch);
  p.loss_rate = 0.0;
  return p;
}

TEST(TcpHandshakeTest, EstablishesBothSides) {
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection({}, {});
  bool client_up = false;
  bool server_up = false;
  conn.client().set_on_established([&] { client_up = true; });
  conn.server().set_on_established([&] { server_up = true; });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(1.0));
  EXPECT_TRUE(client_up);
  EXPECT_TRUE(server_up);
  EXPECT_EQ(conn.client().state(), TcpState::kEstablished);
  EXPECT_EQ(conn.server().state(), TcpState::kEstablished);
}

TEST(TcpHandshakeTest, TakesRoughlyOneRtt) {
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection({}, {});
  double established_at = -1.0;
  conn.client().set_on_established([&] { established_at = h.sim.now().to_seconds(); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(1.0));
  const double rtt = h.path.unloaded_rtt().to_seconds();
  EXPECT_GT(established_at, 0.9 * rtt);
  EXPECT_LT(established_at, 2.0 * rtt);
}

TEST(TcpHandshakeTest, SurvivesSynAckLoss) {
  // Force the first few down-path packets to be lost with certainty by a
  // tiny queue: SYN-ACK always fits, so use a 100%-loss then recovering
  // model instead -> simplest deterministic approach: drop via loss_rate=1
  // is permanent, so emulate loss by a queue that only fits zero segments
  // is also permanent. Instead verify RTO-driven SYN retransmission by
  // making the server deaf for a while (do not create it until later is
  // not possible) -> use loss_rate high but finite and a long runtime.
  auto p = lossless_profile();
  p.loss_rate = 0.9;
  Harness h{p, 7};
  auto& conn = h.fabric.create_connection({}, {});
  bool client_up = false;
  conn.client().set_on_established([&] { client_up = true; });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(120.0));
  EXPECT_TRUE(client_up);  // handshake eventually completes despite loss
  EXPECT_GT(conn.client().stats().timeouts + conn.server().stats().timeouts, 0U);
}

TEST(TcpTransferTest, BulkTransferDeliversAllBytes) {
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection({}, {});
  constexpr std::uint64_t kBytes = 1'000'000;
  conn.client().set_on_established([&] { conn.server().send(kBytes); });
  // Client drains everything as it arrives (bulk download).
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(30.0));
  EXPECT_EQ(conn.client().total_read(), kBytes);
  EXPECT_EQ(conn.server().unacked_bytes(), 0U);
}

TEST(TcpFabricTest, IdleOnceTransferDrainsButNotWhileWindowIsShut) {
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection({}, {});
  EXPECT_TRUE(h.fabric.idle());
  conn.client().set_on_established([&] { conn.server().send(200'000); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  EXPECT_FALSE(h.fabric.idle());  // SYN retransmission timer armed
  h.sim.run_until(SimTime::from_seconds(30.0));
  ASSERT_EQ(conn.client().total_read(), 200'000U);
  // Everything acked, delayed ACKs flushed: no timer left on the clock.
  EXPECT_TRUE(h.fabric.idle());
  EXPECT_EQ(h.path.down().in_flight() + h.path.up().in_flight(), 0U);

  // A receiver that stops reading shuts its window; the sender then probes
  // it forever, so the fabric never goes idle.
  TcpOptions small_buffer;
  small_buffer.recv_buffer_bytes = 64 * 1024;
  auto& stalled = h.fabric.create_connection(small_buffer, {});
  stalled.client().set_on_established([&] { stalled.server().send(1'000'000); });
  stalled.open();
  h.sim.run_until(SimTime::from_seconds(120.0));
  EXPECT_GT(stalled.server().untransmitted_bytes(), 0U);
  EXPECT_EQ(stalled.server().peer_window(), 0U);
  EXPECT_FALSE(h.fabric.idle());
}

TEST(TcpTransferTest, ThroughputApproachesBottleneck) {
  auto p = lossless_profile();
  p.down_bps = 10e6;
  Harness h{p};
  auto& conn = h.fabric.create_connection({}, {});
  constexpr std::uint64_t kBytes = 5'000'000;  // 4 s at 10 Mbps
  double done_at = -1.0;
  conn.client().set_on_established([&] { conn.server().send(kBytes); });
  conn.client().set_on_readable([&] {
    (void)conn.client().read(UINT64_MAX);
    if (conn.client().total_read() == kBytes && done_at < 0) done_at = h.sim.now().to_seconds();
  });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(60.0));
  ASSERT_GT(done_at, 0.0);
  const double goodput = kBytes * 8.0 / done_at;
  EXPECT_GT(goodput, 0.75 * p.down_bps);   // efficient
  EXPECT_LT(goodput, 1.01 * p.down_bps);   // not faster than the wire
}

TEST(TcpTransferTest, TransfersWithLossComplete) {
  auto p = lossless_profile();
  p.loss_rate = 0.02;
  p.down_bps = 20e6;
  Harness h{p, 99};
  auto& conn = h.fabric.create_connection({}, {});
  constexpr std::uint64_t kBytes = 2'000'000;
  conn.client().set_on_established([&] { conn.server().send(kBytes); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(120.0));
  EXPECT_EQ(conn.client().total_read(), kBytes);
  EXPECT_GT(conn.server().stats().bytes_retransmitted, 0U);
  EXPECT_GT(conn.server().stats().fast_retransmits + conn.server().stats().timeouts, 0U);
}

TEST(TcpTransferTest, RetransmissionFractionTracksLossRate) {
  auto p = lossless_profile();
  p.loss_rate = 0.01;
  p.down_bps = 20e6;
  Harness h{p, 1234};
  auto& conn = h.fabric.create_connection({}, {});
  constexpr std::uint64_t kBytes = 10'000'000;
  conn.client().set_on_established([&] { conn.server().send(kBytes); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(300.0));
  ASSERT_EQ(conn.client().total_read(), kBytes);
  const double frac = conn.server().stats().retransmission_fraction();
  EXPECT_GT(frac, 0.004);
  EXPECT_LT(frac, 0.05);
}

TEST(TcpFlowControlTest, ZeroWindowStallsSender) {
  auto p = lossless_profile();
  TcpOptions client_opts;
  client_opts.recv_buffer_bytes = 64 * 1024;
  Harness h{p};
  auto& conn = h.fabric.create_connection(client_opts, {});
  conn.client().set_on_established([&] { conn.server().send(10'000'000); });
  // Client never reads: the server must stop after filling the window.
  conn.open();
  h.sim.run_until(SimTime::from_seconds(5.0));
  EXPECT_LE(conn.client().available(), client_opts.recv_buffer_bytes);
  EXPECT_LE(conn.server().stats().bytes_sent,
            client_opts.recv_buffer_bytes + 2ULL * 1460);
  EXPECT_EQ(conn.client().advertised_window(), 0U);
}

TEST(TcpFlowControlTest, WindowUpdateResumesTransfer) {
  auto p = lossless_profile();
  TcpOptions client_opts;
  client_opts.recv_buffer_bytes = 64 * 1024;
  Harness h{p};
  auto& conn = h.fabric.create_connection(client_opts, {});
  constexpr std::uint64_t kBytes = 512 * 1024;
  conn.client().set_on_established([&] { conn.server().send(kBytes); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(2.0));
  ASSERT_EQ(conn.client().advertised_window(), 0U);

  // Pull-throttled client: read 64 kB every 100 ms.
  sim::PeriodicTimer reader{h.sim, Duration::millis(100),
                            [&] { (void)conn.client().read(64 * 1024); }};
  reader.start();
  h.sim.run_until(SimTime::from_seconds(10.0));
  reader.stop();
  EXPECT_EQ(conn.client().total_read(), kBytes);
}

TEST(TcpFlowControlTest, PersistProbeIntervalDoublesToSixtySeconds) {
  TcpOptions client_opts;
  client_opts.recv_buffer_bytes = 64 * 1024;
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection(client_opts, {});
  conn.client().set_on_established([&] { conn.server().send(10'000'000); });
  // Client never reads, so the window stays shut and every one-byte
  // segment the server sends is a persist probe.
  // The ACK that empties the server's flight arms the persist timer; it is
  // the last segment the server hears before its first probe.
  std::vector<SimTime> probes;
  SimTime last_ack_in;
  h.path.set_tap([&](SimTime t, const TcpSegment& s, Direction d, LinkEvent e) {
    if (d == Direction::kDown && e == LinkEvent::kEnqueue && s.payload_bytes == 1) {
      probes.push_back(t);
    } else if (d == Direction::kUp && e == LinkEvent::kDeliver && probes.empty()) {
      last_ack_in = t;
    }
  });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(300.0));

  ASSERT_FALSE(probes.empty());
  EXPECT_EQ(probes[0] - last_ack_in, Duration::millis(500));
  const Duration expected[] = {Duration::seconds(1.0),  Duration::seconds(2.0),
                               Duration::seconds(4.0),  Duration::seconds(8.0),
                               Duration::seconds(16.0), Duration::seconds(32.0),
                               Duration::seconds(60.0), Duration::seconds(60.0),
                               Duration::seconds(60.0)};
  ASSERT_GE(probes.size(), std::size(expected) + 1);
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(probes[i + 1] - probes[i], expected[i]) << "gap after probe " << i;
  }
  EXPECT_EQ(conn.client().advertised_window(), 0U);
}

TEST(TcpFlowControlTest, ReceiveWindowReflectsUnreadData) {
  auto p = lossless_profile();
  TcpOptions client_opts;
  client_opts.recv_buffer_bytes = 100 * 1024;
  Harness h{p};
  auto& conn = h.fabric.create_connection(client_opts, {});
  conn.client().set_on_established([&] { conn.server().send(50 * 1024); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(2.0));
  EXPECT_EQ(conn.client().available(), 50U * 1024);
  EXPECT_EQ(conn.client().advertised_window(), 50U * 1024);
  (void)conn.client().read(10 * 1024);
  EXPECT_EQ(conn.client().advertised_window(), 60U * 1024);
}

TEST(TcpCongestionTest, SlowStartGrowsExponentially) {
  auto p = lossless_profile();
  p.down_bps = 1e9;  // no bottleneck: pure slow start
  Harness h{p};
  TcpOptions server_opts;
  server_opts.initial_cwnd_segments = 2;
  auto& conn = h.fabric.create_connection({}, server_opts);
  conn.client().set_on_established([&] { conn.server().send(4'000'000); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  const std::uint64_t cwnd0 = conn.server().cwnd_bytes();
  const double rtt = h.path.unloaded_rtt().to_seconds();
  h.sim.run_until(SimTime::from_seconds(rtt * 4));
  EXPECT_GE(conn.server().cwnd_bytes(), cwnd0 * 4);
}

TEST(TcpCongestionTest, LossReducesCwnd) {
  auto p = lossless_profile();
  p.down_bps = 50e6;
  p.loss_rate = 0.01;
  Harness h{p, 5};
  auto& conn = h.fabric.create_connection({}, {});
  conn.client().set_on_established([&] { conn.server().send(20'000'000); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(20.0));
  // After experiencing loss, ssthresh must have come down from "infinity".
  EXPECT_LT(conn.server().ssthresh_bytes(), 100'000'000ULL);
  EXPECT_GT(conn.server().stats().fast_retransmits + conn.server().stats().timeouts, 0U);
}

TEST(TcpCloseTest, FinReachesPeerAndSignalsEof) {
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection({}, {});
  conn.client().set_on_established([&] {
    conn.server().send(10'000);
    conn.server().close();
  });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(5.0));
  EXPECT_EQ(conn.client().total_read(), 10'000U);
  EXPECT_TRUE(conn.client().at_eof());
  EXPECT_EQ(conn.server().state(), TcpState::kFinished);
}

TEST(TcpCloseTest, SendAfterCloseThrows) {
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection({}, {});
  conn.server().close();
  EXPECT_THROW(conn.server().send(100), std::logic_error);
}

TEST(TcpTagTest, TagsArriveInStreamOrderAtReadTime) {
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection({}, {});
  conn.client().set_on_established([&] {
    conn.server().send(1000, std::string{"header"});
    conn.server().send(5000, std::string{"body"});
  });
  std::vector<std::string> seen;
  conn.client().set_on_readable([&] {
    auto r = conn.client().read(UINT64_MAX);
    for (auto& t : r.tags) seen.push_back(std::any_cast<std::string>(t));
  });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(5.0));
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen[0], "header");
  EXPECT_EQ(seen[1], "body");
}

TEST(TcpTagTest, TagNotDeliveredUntilFullMessageRead) {
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection({}, {});
  conn.client().set_on_established([&] { conn.server().send(1000, std::string{"msg"}); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(2.0));
  auto r1 = conn.client().read(500);
  EXPECT_EQ(r1.bytes, 500U);
  EXPECT_TRUE(r1.tags.empty());
  auto r2 = conn.client().read(500);
  EXPECT_EQ(r2.bytes, 500U);
  ASSERT_EQ(r2.tags.size(), 1U);
  EXPECT_EQ(std::any_cast<std::string>(r2.tags[0]), "msg");
}

TEST(TcpTagTest, ClientToServerTagsWork) {
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection({}, {});
  conn.client().set_on_established([&] { conn.client().send(200, std::string{"GET"}); });
  std::string seen;
  conn.server().set_on_readable([&] {
    auto r = conn.server().read(UINT64_MAX);
    if (!r.tags.empty()) seen = std::any_cast<std::string>(r.tags[0]);
  });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(2.0));
  EXPECT_EQ(seen, "GET");
}

TEST(TcpIdleRestartTest, CwndPersistsAcrossIdleByDefault) {
  // The paper's Fig 9 observation: streaming servers send whole blocks
  // back-to-back after an OFF period, i.e. cwnd is NOT reset after idle.
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection({}, {});
  conn.client().set_on_established([&] { conn.server().send(500'000); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(5.0));
  const auto cwnd_before = conn.server().cwnd_bytes();
  ASSERT_GT(cwnd_before, 10ULL * 1460);
  // 10 s idle OFF period, then another block.
  h.sim.run_until(SimTime::from_seconds(15.0));
  conn.server().send(64 * 1024);
  h.sim.run_until(SimTime::from_seconds(15.1));
  EXPECT_GE(conn.server().cwnd_bytes(), cwnd_before);
}

TEST(TcpIdleRestartTest, Rfc5681ResetShrinksCwndAfterIdle) {
  Harness h{lossless_profile()};
  TcpOptions server_opts;
  server_opts.reset_cwnd_after_idle = true;
  auto& conn = h.fabric.create_connection({}, server_opts);
  conn.client().set_on_established([&] { conn.server().send(500'000); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(5.0));
  ASSERT_GT(conn.server().cwnd_bytes(), 10ULL * 1460);
  h.sim.run_until(SimTime::from_seconds(15.0));
  conn.server().send(64 * 1024);
  h.sim.run_until(SimTime::from_seconds(15.001));
  // Restart window = initial cwnd (10 segments by default) + growth from
  // at most a handful of acks in the first millisecond.
  EXPECT_LE(conn.server().cwnd_bytes(), 12ULL * 1460);
}

TEST(TcpFabricTest, ParallelConnectionsShareBottleneck) {
  auto p = lossless_profile();
  p.down_bps = 10e6;
  Harness h{p};
  constexpr int kConns = 4;
  constexpr std::uint64_t kBytes = 1'000'000;
  std::vector<Connection*> conns;
  for (int i = 0; i < kConns; ++i) {
    auto& c = h.fabric.create_connection({}, {});
    c.client().set_on_established([&c] { c.server().send(kBytes); });
    c.client().set_on_readable([&c] { (void)c.client().read(UINT64_MAX); });
    conns.push_back(&c);
    c.open();
  }
  h.sim.run_until(SimTime::from_seconds(60.0));
  std::uint64_t total = 0;
  for (auto* c : conns) total += c->client().total_read();
  EXPECT_EQ(total, kBytes * kConns);
  EXPECT_EQ(h.fabric.video_connection_count(), static_cast<std::size_t>(kConns));
}

TEST(TcpFabricTest, SequentialConnectionsIndependent) {
  Harness h{lossless_profile()};
  auto& c1 = h.fabric.create_connection({}, {});
  c1.client().set_on_established([&] {
    c1.server().send(1000);
    c1.server().close();
  });
  c1.client().set_on_readable([&] { (void)c1.client().read(UINT64_MAX); });
  c1.open();
  h.sim.run_until(SimTime::from_seconds(5.0));
  ASSERT_EQ(c1.client().total_read(), 1000U);

  auto& c2 = h.fabric.create_connection({}, {});
  c2.client().set_on_established([&] { c2.server().send(2000); });
  c2.client().set_on_readable([&] { (void)c2.client().read(UINT64_MAX); });
  c2.open();
  h.sim.run_until(SimTime::from_seconds(10.0));
  EXPECT_EQ(c2.client().total_read(), 2000U);
  EXPECT_NE(c1.id(), c2.id());
}

// Property sweep: transfers complete across all vantage profiles.
class TcpVantageProperty : public ::testing::TestWithParam<Vantage> {};

TEST_P(TcpVantageProperty, TransferCompletesOnProfile) {
  Harness h{GetParam(), 2024};
  auto& conn = h.fabric.create_connection({}, {});
  constexpr std::uint64_t kBytes = 1'000'000;
  conn.client().set_on_established([&] { conn.server().send(kBytes); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(120.0));
  EXPECT_EQ(conn.client().total_read(), kBytes) << net::vantage_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllVantages, TcpVantageProperty,
                         ::testing::ValuesIn(net::kAllVantages),
                         [](const ::testing::TestParamInfo<Vantage>& info) {
                           return std::string{net::vantage_name(info.param)};
                         });

// Property sweep: delivered bytes equal sent bytes for varying sizes.
class TcpSizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpSizeProperty, ExactByteConservation) {
  Harness h{lossless_profile()};
  auto& conn = h.fabric.create_connection({}, {});
  const std::uint64_t bytes = GetParam();
  conn.client().set_on_established([&] {
    conn.server().send(bytes);
    conn.server().close();
  });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(60.0));
  EXPECT_EQ(conn.client().total_read(), bytes);
  EXPECT_TRUE(conn.client().at_eof());
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpSizeProperty,
                         ::testing::Values(1ULL, 100ULL, 1460ULL, 1461ULL, 65536ULL, 1'000'000ULL));

}  // namespace
}  // namespace vstream::tcp
