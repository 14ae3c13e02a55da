// Stress and property tests for the TCP implementation: loss sweeps,
// bursty-loss sweeps, bidirectional transfer, many parallel connections,
// tiny buffers, FIN under loss, and pathological reader patterns. The
// invariants: bytes are conserved, connections never wedge, and the
// retransmission overhead stays proportionate to the loss rate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/path.hpp"
#include "net/profile.hpp"
#include "sim/periodic_timer.hpp"
#include "tcp/connection.hpp"

namespace vstream::tcp {
namespace {

using net::Vantage;
using sim::Duration;
using sim::SimTime;

struct Harness {
  explicit Harness(net::NetworkProfile profile, std::uint64_t seed)
      : rng{seed}, path{sim, profile, rng}, fabric{sim, path} {}
  sim::Simulator sim;
  sim::Rng rng;
  net::Path path;
  tcp::Fabric fabric;
};

net::NetworkProfile profile_with(double loss, double burst = 1.0, double down_bps = 50e6) {
  auto p = net::profile_for(Vantage::kResearch);
  p.loss_rate = loss;
  p.loss_burst_len = burst;
  p.down_bps = down_bps;
  return p;
}

struct LossCase {
  double loss;
  double burst;
};

std::string case_name(const LossCase& c) {
  return "loss" + std::to_string(static_cast<int>(c.loss * 1000)) + "burst" +
         std::to_string(static_cast<int>(c.burst));
}

// gtest prints a param into each listed test name; without this it would
// dump the struct's bytes.
void PrintTo(const LossCase& c, std::ostream* os) { *os << case_name(c); }

class LossSweep : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossSweep, TransferCompletesWithBoundedOverhead) {
  const auto [loss, burst] = GetParam();
  Harness h{profile_with(loss, burst), 424242};
  auto& conn = h.fabric.create_connection({}, {});
  constexpr std::uint64_t kBytes = 3'000'000;
  conn.client().set_on_established([&] {
    conn.server().send(kBytes);
    conn.server().close();
  });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(600.0));

  EXPECT_EQ(conn.client().total_read(), kBytes);
  EXPECT_TRUE(conn.client().at_eof());
  const double overhead = conn.server().stats().retransmission_fraction();
  // Generous bound: wire loss + recovery duplication stays within ~8x p.
  EXPECT_LT(overhead, std::max(0.02, 8.0 * loss)) << "loss " << loss << " burst " << burst;
}

INSTANTIATE_TEST_SUITE_P(Rates, LossSweep,
                         ::testing::Values(LossCase{0.0, 1.0}, LossCase{0.001, 1.0},
                                           LossCase{0.005, 1.0}, LossCase{0.01, 1.0},
                                           LossCase{0.03, 1.0}, LossCase{0.01, 4.0},
                                           LossCase{0.03, 4.0}, LossCase{0.05, 6.0}),
                         [](const ::testing::TestParamInfo<LossCase>& info) {
                           return case_name(info.param);
                         });

TEST(TcpStressTest, BidirectionalTransfer) {
  Harness h{profile_with(0.002), 7};
  auto& conn = h.fabric.create_connection({}, {});
  constexpr std::uint64_t kDown = 2'000'000;
  constexpr std::uint64_t kUp = 500'000;
  conn.client().set_on_established([&] {
    conn.server().send(kDown);
    conn.client().send(kUp);
  });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.server().set_on_readable([&] { (void)conn.server().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(120.0));
  EXPECT_EQ(conn.client().total_read(), kDown);
  EXPECT_EQ(conn.server().total_read(), kUp);
}

TEST(TcpStressTest, ManyParallelConnectionsAllComplete) {
  Harness h{profile_with(0.005, 3.0, 30e6), 99};
  constexpr int kConns = 12;
  constexpr std::uint64_t kBytes = 400'000;
  std::vector<Connection*> conns;
  for (int i = 0; i < kConns; ++i) {
    auto& c = h.fabric.create_connection({}, {});
    c.client().set_on_established([&c] { c.server().send(kBytes); });
    c.client().set_on_readable([&c] { (void)c.client().read(UINT64_MAX); });
    conns.push_back(&c);
    c.open();
  }
  h.sim.run_until(SimTime::from_seconds(300.0));
  for (auto* c : conns) {
    EXPECT_EQ(c->client().total_read(), kBytes) << "connection " << c->id();
  }
}

TEST(TcpStressTest, TinyReceiveBufferStillCompletes) {
  TcpOptions copts;
  copts.recv_buffer_bytes = 4 * 1460;  // four segments
  Harness h{profile_with(0.002), 3};
  auto& conn = h.fabric.create_connection(copts, {});
  constexpr std::uint64_t kBytes = 500'000;
  conn.client().set_on_established([&] { conn.server().send(kBytes); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(300.0));
  EXPECT_EQ(conn.client().total_read(), kBytes);
}

TEST(TcpStressTest, FinDeliveredUnderLoss) {
  Harness h{profile_with(0.02, 3.0), 11};
  auto& conn = h.fabric.create_connection({}, {});
  bool eof_seen = false;
  conn.client().set_on_established([&] {
    conn.server().send(200'000);
    conn.server().close();
  });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.client().set_on_peer_fin([&] { eof_seen = true; });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(300.0));
  EXPECT_TRUE(eof_seen);
  EXPECT_EQ(conn.client().total_read(), 200'000U);
  EXPECT_EQ(conn.server().state(), TcpState::kFinished);
}

TEST(TcpStressTest, StopAndGoReaderNeverWedges) {
  // Reader alternates: drain for 1 s, sleep 3 s (zero-window churn).
  TcpOptions copts;
  copts.recv_buffer_bytes = 128 * 1024;
  Harness h{profile_with(0.005, 3.0), 21};
  auto& conn = h.fabric.create_connection(copts, {});
  constexpr std::uint64_t kBytes = 4'000'000;
  conn.client().set_on_established([&] { conn.server().send(kBytes); });
  bool reading = false;
  conn.client().set_on_readable([&] {
    if (reading) (void)conn.client().read(UINT64_MAX);
  });
  sim::PeriodicTimer toggler{h.sim, Duration::seconds(1.0), [&] {
                               reading = !reading;
                               if (reading) (void)conn.client().read(UINT64_MAX);
                             }};
  toggler.start();
  conn.open();
  h.sim.run_until(SimTime::from_seconds(600.0));
  toggler.stop();
  (void)conn.client().read(UINT64_MAX);
  h.sim.run_until(SimTime::from_seconds(700.0));
  (void)conn.client().read(UINT64_MAX);
  EXPECT_EQ(conn.client().total_read(), kBytes);
}

TEST(TcpStressTest, SlowTrickleReaderMatchesConfiguredRate) {
  // A reader draining 10 kB every 100 ms caps goodput at ~0.8 Mbps.
  TcpOptions copts;
  copts.recv_buffer_bytes = 64 * 1024;
  Harness h{profile_with(0.0), 31};
  auto& conn = h.fabric.create_connection(copts, {});
  conn.client().set_on_established([&] { conn.server().send(10'000'000); });
  sim::PeriodicTimer reader{h.sim, Duration::millis(100),
                            [&] { (void)conn.client().read(10'000); }};
  reader.start();
  conn.open();
  h.sim.run_until(SimTime::from_seconds(100.0));
  reader.stop();
  const double rate = conn.client().total_read() * 8.0 / 100.0;
  EXPECT_NEAR(rate, 0.8e6, 0.1e6);
}

TEST(TcpStressTest, SequentialTransfersOnOneConnection) {
  // Request/response cycles: 20 rounds of 100 kB with idle gaps between —
  // the connection-reuse pattern of the Netflix persistent mode.
  Harness h{profile_with(0.003), 41};
  auto& conn = h.fabric.create_connection({}, {});
  int rounds_done = 0;
  std::uint64_t expect_read = 0;
  conn.client().set_on_established([&] { conn.server().send(100'000); });
  conn.client().set_on_readable([&] {
    (void)conn.client().read(UINT64_MAX);
    if (conn.client().total_read() >= expect_read + 100'000) {
      expect_read += 100'000;
      ++rounds_done;
      if (rounds_done < 20) {
        // Idle 2 s, then next burst.
        h.sim.schedule_after(Duration::seconds(2.0), [&] { conn.server().send(100'000); });
      }
    }
  });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(300.0));
  EXPECT_EQ(rounds_done, 20);
  EXPECT_EQ(conn.client().total_read(), 20U * 100'000);
}

TEST(TcpStressTest, CwndSurvivesIdleByDefaultEvenWithLoss) {
  Harness h{profile_with(0.002), 51};
  auto& conn = h.fabric.create_connection({}, {});
  conn.client().set_on_established([&] { conn.server().send(2'000'000); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(30.0));
  ASSERT_EQ(conn.client().total_read(), 2'000'000U);
  const auto cwnd_before_idle = conn.server().cwnd_bytes();
  h.sim.run_until(SimTime::from_seconds(90.0));  // 60 s idle
  EXPECT_EQ(conn.server().cwnd_bytes(), cwnd_before_idle);
}

TEST(TcpStressTest, StatsAreInternallyConsistent) {
  Harness h{profile_with(0.01, 4.0), 61};
  auto& conn = h.fabric.create_connection({}, {});
  constexpr std::uint64_t kBytes = 2'000'000;
  conn.client().set_on_established([&] { conn.server().send(kBytes); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(300.0));
  const auto& s = conn.server().stats();
  EXPECT_EQ(s.bytes_sent, kBytes);  // first transmissions only
  EXPECT_EQ(conn.client().stats().bytes_received, kBytes);
  EXPECT_GE(s.segments_sent,
            kBytes / conn.server().options().mss);  // at least ceil(bytes/mss)
  EXPECT_GT(s.acks_received, 0U);
  EXPECT_GT(s.last_srtt_s, 0.0);
  EXPECT_LT(s.last_srtt_s, 1.0);
}

}  // namespace
}  // namespace vstream::tcp
