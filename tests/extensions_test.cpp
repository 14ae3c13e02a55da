// Tests for the remaining extensions: JSON report export, nanosecond pcap
// reading, the cross-traffic generator, and trace filtering.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "analysis/report_json.hpp"
#include "capture/pcap.hpp"
#include "capture/trace_view.hpp"
#include "net/cross_traffic.hpp"
#include "net/path.hpp"
#include "net/profile.hpp"
#include "streaming/session_builder.hpp"
#include "tcp/connection.hpp"

namespace vstream {
namespace {

TEST(JsonTest, ReportRoundTripStructure) {
  analysis::SessionReport report;
  report.label = "test \"quoted\"";
  report.strategy = analysis::Strategy::kShortOnOff;
  report.rationale = "because";
  report.has_steady_state = true;
  report.median_block_kb = 64.0;
  report.accumulation_ratio = 1.25;
  // rtt_ms left unset -> null
  const std::string json = analysis::to_json(report);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"strategy\":\"Short\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"test \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"accumulation_ratio\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"rtt_ms\":null"), std::string::npos);
  EXPECT_NE(json.find("\"has_steady_state\":true"), std::string::npos);
}

TEST(JsonTest, FlowTableArray) {
  analysis::FlowTable table;
  analysis::FlowRecord f;
  f.connection_id = 3;
  f.down_payload_bytes = 1000;
  f.handshake_rtt_s = 0.02;
  table.flows.push_back(f);
  table.flows.push_back(analysis::FlowRecord{});
  const std::string json = analysis::to_json(table);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"connection\":3"), std::string::npos);
  EXPECT_NE(json.find("\"down_bytes\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"handshake_rtt_s\":0.02"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 2);
}

TEST(JsonTest, FullSessionReportIsWellFormedEnough) {
  video::VideoMeta meta;
  meta.id = "j";
  meta.duration_s = 300.0;
  meta.encoding_bps = 1e6;
  const auto result = streaming::SessionBuilder{}
                          .vantage(net::Vantage::kResearch)
                          .video(meta)
                          .capture_duration_s(60.0)
                          .run();
  const auto report = analysis::build_report(result.trace);
  const std::string json = analysis::to_json(report);
  // Balanced braces and quotes (cheap well-formedness checks).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
}

TEST(PcapNanosTest, ReadsNanosecondMagic) {
  // Write a microsecond file, then flip its magic to the nanosecond variant
  // and scale the sub-second field expectation.
  capture::PacketTrace trace;
  capture::PacketRecord r;
  r.t_s = 1.5;
  r.direction = net::Direction::kDown;
  r.payload_bytes = 100;
  r.flags = net::TcpFlag::kAck;
  trace.packets.push_back(r);
  const std::string path = "/tmp/vstream_ns.pcap";
  capture::write_pcap(trace, path);
  {
    std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
    const std::uint32_t ns_magic = 0xa1b23c4d;
    f.write(reinterpret_cast<const char*>(&ns_magic), 4);
  }
  const auto loaded = capture::read_pcap(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.packets.size(), 1U);
  // The stored 500000 "usec" now mean 500000 ns = 0.0005 s.
  EXPECT_NEAR(loaded.packets[0].t_s, 1.0005, 1e-9);
}

TEST(TraceFilterTest, WithoutConnectionStripsTaggedTraffic) {
  // Cross-traffic tagged with its own host: restricting the view to the
  // video CDN (host 0) strips it, and the copy keeps the trace's metadata.
  capture::PacketTrace trace;
  trace.label = "x";
  for (int i = 0; i < 10; ++i) {
    capture::PacketRecord r;
    r.t_s = i;
    r.direction = net::Direction::kDown;
    r.connection_id = (i % 2 == 0) ? 1 : 0xC0FFEE;
    r.host = (i % 2 == 0) ? 0 : 1;
    r.payload_bytes = 100;
    trace.packets.push_back(r);
  }
  const auto filtered = capture::TraceView{trace}.host(0).materialize();
  EXPECT_EQ(filtered.packets.size(), 5U);
  EXPECT_EQ(filtered.label, "x");
  for (const auto& p : filtered.packets) EXPECT_EQ(p.connection_id, 1U);
}

TEST(CrossTrafficTest, GeneratesConfiguredLoad) {
  sim::Simulator sim;
  sim::Rng rng{5};
  auto profile = net::profile_for(net::Vantage::kResearch);
  profile.loss_rate = 0.0;
  net::Path path{sim, profile, rng};
  path.down().set_receiver([](const net::TcpSegment&) {});
  net::CrossTraffic::Config cfg;
  cfg.mean_rate_bps = 20e6;
  net::CrossTraffic cross{sim, path.down(), cfg, rng.fork("x")};
  cross.start();
  sim.run_until(sim::SimTime::from_seconds(30.0));
  cross.stop();
  const double rate = static_cast<double>(cross.bytes_injected()) * 8.0 / 30.0;
  EXPECT_NEAR(rate, 20e6, 5e6);
  EXPECT_GT(cross.packets_injected(), 1000U);
}

TEST(CrossTrafficTest, CausesQueueLossForCompetingFlow) {
  // Video flow on a lossless link vs the same link with heavy cross
  // traffic: congestion loss now comes from the queue itself.
  const auto run = [](bool with_cross) {
    sim::Simulator sim;
    sim::Rng rng{6};
    auto profile = net::profile_for(net::Vantage::kResearch);
    profile.loss_rate = 0.0;
    profile.down_bps = 20e6;
    net::Path path{sim, profile, rng};
    tcp::Fabric fabric{sim, path};
    std::unique_ptr<net::CrossTraffic> cross;
    if (with_cross) {
      net::CrossTraffic::Config cfg;
      cfg.mean_rate_bps = 15e6;
      cross = std::make_unique<net::CrossTraffic>(sim, path.down(), cfg, rng.fork("x"));
      cross->start();
    }
    auto& conn = fabric.create_connection({}, {});
    conn.client().set_on_established([&] { conn.server().send(10'000'000); });
    conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
    conn.open();
    sim.run_until(sim::SimTime::from_seconds(60.0));
    return std::pair{conn.client().total_read(), conn.server().stats().bytes_retransmitted};
  };
  const auto [clean_read, clean_retx] = run(false);
  const auto [congested_read, congested_retx] = run(true);
  EXPECT_EQ(clean_read, 10'000'000U);
  EXPECT_EQ(clean_retx, 0U);
  EXPECT_GT(congested_retx, 0U);        // queue drops caused retransmissions
  EXPECT_GT(congested_read, 1'000'000U);  // but the flow still progresses
}

TEST(CrossTrafficTest, ValidatesConfig) {
  sim::Simulator sim;
  net::Link link{sim, net::Link::Config{}, nullptr, sim::Rng{1}};
  net::CrossTraffic::Config bad;
  bad.mean_rate_bps = 0.0;
  EXPECT_THROW((net::CrossTraffic{sim, link, bad, sim::Rng{2}}), std::invalid_argument);
}

}  // namespace
}  // namespace vstream
