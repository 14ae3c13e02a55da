// Tests for packet traces, the viewer-side recorder, pcap round trips and
// CSV export.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "capture/csv.hpp"
#include "capture/pcap.hpp"
#include "capture/recorder.hpp"
#include "capture/trace.hpp"
#include "capture/trace_view.hpp"
#include "net/path.hpp"
#include "net/profile.hpp"
#include "tcp/connection.hpp"

namespace vstream::capture {
namespace {

using net::Direction;
using net::TcpFlag;

PacketRecord make_record(double t, Direction d, std::uint32_t payload, std::uint64_t conn = 1) {
  PacketRecord r;
  r.t_s = t;
  r.direction = d;
  r.connection_id = conn;
  r.payload_bytes = payload;
  r.window_bytes = 65536;
  r.flags = TcpFlag::kAck;
  return r;
}

TEST(PacketTraceTest, DownPayloadAndConnectionCount) {
  PacketTrace trace;
  trace.packets.push_back(make_record(0.1, Direction::kDown, 1000, 1));
  trace.packets.push_back(make_record(0.2, Direction::kUp, 0, 1));
  trace.packets.push_back(make_record(0.3, Direction::kDown, 500, 2));
  EXPECT_EQ(trace.down_payload_bytes(), 1500U);
  EXPECT_EQ(trace.connection_count(), 2U);
  EXPECT_EQ(TraceView{trace}.direction(Direction::kDown).count(), 2U);
  EXPECT_EQ(TraceView{trace}.direction(Direction::kUp).count(), 1U);
}

TEST(PacketTraceTest, DownloadCurveIsCumulative) {
  PacketTrace trace;
  trace.packets.push_back(make_record(0.1, Direction::kDown, 1000));
  trace.packets.push_back(make_record(0.2, Direction::kDown, 2000));
  trace.packets.push_back(make_record(0.3, Direction::kUp, 0));
  const auto curve = trace.download_curve();
  ASSERT_EQ(curve.size(), 2U);
  EXPECT_EQ(curve[0].bytes, 1000U);
  EXPECT_EQ(curve[1].bytes, 3000U);
}

TEST(PacketTraceTest, WindowSeriesFromUpPackets) {
  PacketTrace trace;
  auto up = make_record(0.5, Direction::kUp, 0);
  up.window_bytes = 0;
  trace.packets.push_back(make_record(0.1, Direction::kDown, 100));
  trace.packets.push_back(up);
  const auto series = trace.receive_window_series();
  ASSERT_EQ(series.size(), 1U);
  EXPECT_EQ(series[0].window_bytes, 0U);
}

TEST(PacketTraceTest, RetransmissionFraction) {
  PacketTrace trace;
  trace.packets.push_back(make_record(0.1, Direction::kDown, 900));
  auto retx = make_record(0.2, Direction::kDown, 100);
  retx.is_retransmission = true;
  trace.packets.push_back(retx);
  EXPECT_DOUBLE_EQ(trace.retransmission_fraction(), 0.1);
  EXPECT_DOUBLE_EQ(PacketTrace{}.retransmission_fraction(), 0.0);
}

TEST(RecorderTest, CapturesViewerSidePackets) {
  sim::Simulator sim;
  sim::Rng rng{1};
  auto profile = net::profile_for(net::Vantage::kResearch);
  profile.loss_rate = 0.0;
  net::Path path{sim, profile, rng};
  tcp::Fabric fabric{sim, path};
  TraceRecorder recorder{sim, path};
  recorder.start();

  auto& conn = fabric.create_connection({}, {});
  conn.client().set_on_established([&] { conn.server().send(100'000); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  sim.run_until(sim::SimTime::from_seconds(5.0));

  const auto trace = recorder.trace();
  EXPECT_FALSE(trace.empty());
  // The client's SYN (up) and the server's SYN-ACK (down) must both appear.
  bool saw_syn = false;
  bool saw_synack = false;
  std::uint64_t down_payload = 0;
  for (const auto& p : trace.packets) {
    if (p.direction == Direction::kUp && net::has_flag(p.flags, TcpFlag::kSyn)) saw_syn = true;
    if (p.direction == Direction::kDown && net::has_flag(p.flags, TcpFlag::kSyn) &&
        net::has_flag(p.flags, TcpFlag::kAck)) {
      saw_synack = true;
    }
    if (p.direction == Direction::kDown) down_payload += p.payload_bytes;
  }
  EXPECT_TRUE(saw_syn);
  EXPECT_TRUE(saw_synack);
  EXPECT_GE(down_payload, 100'000U);
}

TEST(RecorderTest, StopFreezesTrace) {
  sim::Simulator sim;
  sim::Rng rng{1};
  auto profile = net::profile_for(net::Vantage::kResearch);
  net::Path path{sim, profile, rng};
  tcp::Fabric fabric{sim, path};
  TraceRecorder recorder{sim, path};
  recorder.start();
  auto& conn = fabric.create_connection({}, {});
  conn.client().set_on_established([&] { conn.server().send(10'000); });
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.open();
  sim.run_until(sim::SimTime::from_seconds(1.0));
  recorder.stop();
  const auto count = recorder.trace().packets.size();
  conn.server().send(10'000);
  sim.run_until(sim::SimTime::from_seconds(2.0));
  EXPECT_EQ(recorder.trace().packets.size(), count);
}

TEST(RecorderTest, TakeResetsState) {
  sim::Simulator sim;
  sim::Rng rng{1};
  auto profile = net::profile_for(net::Vantage::kResearch);
  net::Path path{sim, profile, rng};
  TraceRecorder recorder{sim, path};
  recorder.start();
  auto trace = recorder.take();
  EXPECT_TRUE(trace.packets.empty());
  EXPECT_TRUE(recorder.trace().packets.empty());
}

class PcapRoundTrip : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = "/tmp/vstream_pcap_test.pcap";
};

TEST_F(PcapRoundTrip, PreservesAnalysisFields) {
  PacketTrace trace;
  for (int i = 0; i < 50; ++i) {
    PacketRecord r;
    r.t_s = 0.5 + i * 0.101;
    r.direction = (i % 3 == 0) ? Direction::kUp : Direction::kDown;
    r.connection_id = 1 + (i % 4);
    r.seq = static_cast<std::uint64_t>(i) * 1460 + 1;
    r.ack = static_cast<std::uint64_t>(i) * 10;
    r.payload_bytes = (r.direction == Direction::kDown) ? 1460 : 0;
    r.window_bytes = (static_cast<std::uint64_t>(i) * 128) % 250000;
    r.flags = TcpFlag::kAck;
    r.is_retransmission = (i % 7 == 0);
    trace.packets.push_back(r);
  }
  write_pcap(trace, path_);
  const auto loaded = read_pcap(path_);
  ASSERT_EQ(loaded.packets.size(), trace.packets.size());
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    const auto& a = trace.packets[i];
    const auto& b = loaded.packets[i];
    EXPECT_NEAR(a.t_s, b.t_s, 2e-6);
    EXPECT_EQ(a.direction, b.direction);
    EXPECT_EQ(a.connection_id, b.connection_id);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.ack, b.ack);
    EXPECT_EQ(a.payload_bytes, b.payload_bytes);
    EXPECT_EQ(a.is_retransmission, b.is_retransmission);
    // Window survives modulo the 2^7 scale.
    EXPECT_EQ(a.window_bytes >> kPcapWindowShift, b.window_bytes >> kPcapWindowShift);
  }
}

TEST_F(PcapRoundTrip, ZeroWindowSurvives) {
  PacketTrace trace;
  auto r = make_record(1.0, Direction::kUp, 0);
  r.window_bytes = 0;
  trace.packets.push_back(r);
  write_pcap(trace, path_);
  const auto loaded = read_pcap(path_);
  ASSERT_EQ(loaded.packets.size(), 1U);
  EXPECT_EQ(loaded.packets[0].window_bytes, 0U);
}

TEST_F(PcapRoundTrip, FlagsSurvive) {
  PacketTrace trace;
  auto r = make_record(0.0, Direction::kUp, 0);
  r.flags = TcpFlag::kSyn;
  trace.packets.push_back(r);
  auto r2 = make_record(0.1, Direction::kDown, 0);
  r2.flags = TcpFlag::kSyn | TcpFlag::kAck;
  trace.packets.push_back(r2);
  auto r3 = make_record(0.2, Direction::kDown, 10);
  r3.flags = TcpFlag::kFin | TcpFlag::kAck | TcpFlag::kPsh;
  trace.packets.push_back(r3);
  write_pcap(trace, path_);
  const auto loaded = read_pcap(path_);
  ASSERT_EQ(loaded.packets.size(), 3U);
  EXPECT_TRUE(net::has_flag(loaded.packets[0].flags, TcpFlag::kSyn));
  EXPECT_FALSE(net::has_flag(loaded.packets[0].flags, TcpFlag::kAck));
  EXPECT_TRUE(net::has_flag(loaded.packets[1].flags, TcpFlag::kSyn));
  EXPECT_TRUE(net::has_flag(loaded.packets[1].flags, TcpFlag::kAck));
  EXPECT_TRUE(net::has_flag(loaded.packets[2].flags, TcpFlag::kFin));
  EXPECT_TRUE(net::has_flag(loaded.packets[2].flags, TcpFlag::kPsh));
}

TEST_F(PcapRoundTrip, RejectsMissingAndCorruptFiles) {
  EXPECT_THROW((void)read_pcap("/tmp/definitely_missing.pcap"), std::runtime_error);
  std::ofstream bad{path_, std::ios::binary};
  bad << "this is not a pcap file at all";
  bad.close();
  EXPECT_THROW((void)read_pcap(path_), std::runtime_error);
}

TEST(CsvTest, PacketsCsvHasHeaderAndRows) {
  PacketTrace trace;
  trace.packets.push_back(make_record(0.25, Direction::kDown, 1460));
  std::ostringstream out;
  write_packets_csv(trace, out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("t_s,direction,connection"), std::string::npos);
  EXPECT_NE(csv.find("0.25,down,1,"), std::string::npos);
}

TEST(CsvTest, CurveAndWindowCsv) {
  PacketTrace trace;
  trace.packets.push_back(make_record(0.1, Direction::kDown, 100));
  trace.packets.push_back(make_record(0.2, Direction::kUp, 0));
  std::ostringstream curve;
  write_download_curve_csv(trace, curve);
  EXPECT_NE(curve.str().find("0.1,100"), std::string::npos);
  std::ostringstream wnd;
  write_window_series_csv(trace, wnd);
  EXPECT_NE(wnd.str().find("0.2,65536"), std::string::npos);
}

}  // namespace
}  // namespace vstream::capture
