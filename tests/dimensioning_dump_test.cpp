// Tests for the late additions: Gaussian-approximation link dimensioning
// and the tcpdump-style packet formatter.
#include <gtest/gtest.h>

#include "capture/dump.hpp"
#include "model/aggregate.hpp"

namespace vstream {
namespace {

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
