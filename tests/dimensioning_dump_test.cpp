// Tests for the late additions: KS distance, Gaussian-approximation link
// dimensioning, and the tcpdump-style packet formatter.
#include <gtest/gtest.h>

#include <random>

#include "capture/dump.hpp"
#include "model/aggregate.hpp"
#include "stats/cdf.hpp"

namespace vstream {
namespace {

TEST(KsDistanceTest, IdenticalDistributionsHaveZeroDistance) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(i);
  const stats::EmpiricalCdf a{xs};
  const stats::EmpiricalCdf b{xs};
  EXPECT_DOUBLE_EQ(stats::EmpiricalCdf::ks_distance(a, b), 0.0);
}

TEST(KsDistanceTest, DisjointDistributionsHaveDistanceOne) {
  const std::vector<double> lo{1.0, 2.0, 3.0};
  const std::vector<double> hi{10.0, 11.0, 12.0};
  const stats::EmpiricalCdf a{lo};
  const stats::EmpiricalCdf b{hi};
  EXPECT_DOUBLE_EQ(stats::EmpiricalCdf::ks_distance(a, b), 1.0);
}

TEST(KsDistanceTest, ShiftedNormalsGiveModerateDistance) {
  std::mt19937 gen{42};
  std::normal_distribution<double> d0{0.0, 1.0};
  std::normal_distribution<double> d1{0.5, 1.0};
  stats::EmpiricalCdf a;
  stats::EmpiricalCdf b;
  for (int i = 0; i < 5000; ++i) {
    a.add(d0(gen));
    b.add(d1(gen));
  }
  const double d = stats::EmpiricalCdf::ks_distance(a, b);
  // Theoretical KS for N(0,1) vs N(0.5,1) is ~0.197.
  EXPECT_NEAR(d, 0.197, 0.05);
  EXPECT_THROW((void)stats::EmpiricalCdf::ks_distance(a, stats::EmpiricalCdf{}),
               std::logic_error);
}

TEST(DimensioningTest, OverloadProbabilityAtMeanIsHalf) {
  model::AggregateParams p;
  p.lambda_per_s = 1.0;
  p.mean_encoding_bps = 1e6;
  p.mean_duration_s = 300.0;
  p.mean_download_rate_bps = 5e6;
  const double mean = model::mean_aggregate_rate_bps(p);
  EXPECT_NEAR(model::overload_probability(p, mean), 0.5, 1e-9);
  // Far above the mean: vanishing probability.
  EXPECT_LT(model::overload_probability(p, 3.0 * mean), 1e-6);
}

TEST(DimensioningTest, CapacityInverseRoundTrips) {
  model::AggregateParams p;
  p.lambda_per_s = 0.5;
  p.mean_encoding_bps = 1e6;
  p.mean_duration_s = 300.0;
  p.mean_download_rate_bps = 5e6;
  for (const double q : {0.1, 0.01, 0.001}) {
    const double capacity = model::capacity_for_violation(p, q);
    EXPECT_NEAR(model::overload_probability(p, capacity), q, q * 0.05);
    EXPECT_GT(capacity, model::mean_aggregate_rate_bps(p));
  }
  EXPECT_THROW((void)model::capacity_for_violation(p, 0.0), std::invalid_argument);
  EXPECT_THROW((void)model::capacity_for_violation(p, 1.0), std::invalid_argument);
}

TEST(DimensioningTest, TighterViolationNeedsMoreCapacity) {
  model::AggregateParams p;
  p.mean_download_rate_bps = 5e6;
  EXPECT_GT(model::capacity_for_violation(p, 0.001), model::capacity_for_violation(p, 0.01));
}

TEST(DumpTest, FormatsDataPacket) {
  capture::PacketRecord r;
  r.t_s = 1.25;
  r.direction = net::Direction::kDown;
  r.connection_id = 3;
  r.seq = 1001;
  r.ack = 55;
  r.payload_bytes = 1460;
  r.window_bytes = 65536;
  r.flags = net::TcpFlag::kAck | net::TcpFlag::kPsh;
  const auto line = capture::format_packet(r);
  EXPECT_NE(line.find("10.0.0.1:80 > 192.168.1.2:10003"), std::string::npos);
  EXPECT_NE(line.find("Flags [P.]"), std::string::npos);
  EXPECT_NE(line.find("seq 1001:2461"), std::string::npos);
  EXPECT_NE(line.find("length 1460"), std::string::npos);
}

TEST(DumpTest, MarksRetransmissionsAndAuxHosts) {
  capture::PacketRecord r;
  r.direction = net::Direction::kDown;
  r.payload_bytes = 100;
  r.is_retransmission = true;
  r.host = 1;
  const auto line = capture::format_packet(r);
  EXPECT_NE(line.find("(retransmission)"), std::string::npos);
  EXPECT_NE(line.find("10.0.0.2:80"), std::string::npos);
}

}  // namespace
}  // namespace vstream
