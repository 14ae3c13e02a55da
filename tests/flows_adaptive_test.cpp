// Tests for the per-connection flow table and the adaptive-bitrate
// controller extension (including mid-run bandwidth changes).
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/flows.hpp"
#include "net/path.hpp"
#include "net/profile.hpp"
#include "streaming/adaptive.hpp"
#include "streaming/fetch.hpp"
#include "streaming/netflix_client.hpp"
#include "streaming/session_builder.hpp"
#include "video/datasets.hpp"

namespace vstream {
namespace {

using capture::PacketRecord;
using capture::PacketTrace;
using net::Direction;
using net::TcpFlag;

// ------------------------------------------------------------------ flows

PacketRecord packet(double t, Direction d, std::uint64_t conn, std::uint32_t payload,
                    TcpFlag flags = TcpFlag::kAck, bool retx = false) {
  PacketRecord r;
  r.t_s = t;
  r.direction = d;
  r.connection_id = conn;
  r.payload_bytes = payload;
  r.flags = flags;
  r.is_retransmission = retx;
  return r;
}

TEST(FlowTableTest, SplitsByConnection) {
  PacketTrace trace;
  trace.packets.push_back(packet(0.0, Direction::kUp, 1, 0, TcpFlag::kSyn));
  trace.packets.push_back(packet(0.02, Direction::kDown, 1, 0, TcpFlag::kSyn | TcpFlag::kAck));
  trace.packets.push_back(packet(0.05, Direction::kDown, 1, 1460));
  trace.packets.push_back(packet(1.0, Direction::kUp, 2, 0, TcpFlag::kSyn));
  trace.packets.push_back(packet(1.03, Direction::kDown, 2, 0, TcpFlag::kSyn | TcpFlag::kAck));
  trace.packets.push_back(packet(1.1, Direction::kDown, 2, 2920, TcpFlag::kAck, true));
  trace.packets.push_back(packet(1.2, Direction::kDown, 2, 0, TcpFlag::kFin | TcpFlag::kAck));

  const auto table = analysis::build_flow_table(trace);
  ASSERT_EQ(table.size(), 2U);
  const auto* f1 = table.find(1);
  const auto* f2 = table.find(2);
  ASSERT_NE(f1, nullptr);
  ASSERT_NE(f2, nullptr);
  EXPECT_EQ(f1->down_payload_bytes, 1460U);
  EXPECT_TRUE(f1->saw_syn);
  EXPECT_FALSE(f1->saw_fin);
  ASSERT_TRUE(f1->handshake_rtt_s.has_value());
  EXPECT_NEAR(*f1->handshake_rtt_s, 0.02, 1e-9);
  EXPECT_EQ(f2->down_payload_bytes, 2920U);
  EXPECT_EQ(f2->retransmitted_bytes, 2920U);
  EXPECT_DOUBLE_EQ(f2->retransmission_fraction(), 1.0);
  EXPECT_TRUE(f2->saw_fin);
  EXPECT_EQ(table.find(99), nullptr);
}

TEST(FlowTableTest, ConcurrencyAndExtremes) {
  PacketTrace trace;
  trace.packets.push_back(packet(0.0, Direction::kDown, 1, 1000));
  trace.packets.push_back(packet(10.0, Direction::kDown, 1, 1000));
  trace.packets.push_back(packet(5.0, Direction::kDown, 2, 5000));
  trace.packets.push_back(packet(6.0, Direction::kDown, 2, 5000));
  const auto table = analysis::build_flow_table(trace);
  EXPECT_EQ(table.max_down_bytes(), 10000U);
  EXPECT_EQ(table.min_down_bytes(), 2000U);
}

TEST(FlowTableTest, RenderListsEveryFlow) {
  PacketTrace trace;
  trace.packets.push_back(packet(0.0, Direction::kDown, 1, 1000));
  trace.packets.push_back(packet(1.0, Direction::kDown, 7, 1000));
  const auto table = analysis::build_flow_table(trace);
  const auto text = table.render();
  EXPECT_NE(text.find("conn"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(FlowTableTest, IpadSessionHasManyRangedFlows) {
  video::VideoMeta meta;
  meta.id = "f";
  meta.duration_s = 900.0;
  meta.encoding_bps = 2e6;
  meta.container = video::Container::kHtml5;
  const auto result = streaming::SessionBuilder{}
                          .service(streaming::Service::kYouTube)
                          .container(video::Container::kHtml5)
                          .application(streaming::Application::kIosNative)
                          .vantage(net::Vantage::kResearch)
                          .video(meta)
                          .capture_duration_s(120.0)
                          .seed(77)
                          .run();
  const auto table = analysis::build_flow_table(result.trace);
  EXPECT_GE(table.size(), 10U);
  // Paper: per-connection amounts from 64 kB up to 8 MB.
  EXPECT_LE(table.min_down_bytes(), 2ULL * 1024 * 1024);
  EXPECT_GE(table.max_down_bytes(), 4ULL * 1024 * 1024);
  // Sequential fetches: never a big pile of concurrent connections.
  const auto active_at_60s = std::count_if(
      table.flows.begin(), table.flows.end(),
      [](const auto& f) { return f.first_packet_s <= 60.0 && 60.0 <= f.last_packet_s; });
  EXPECT_LE(active_at_60s, 3);
}

// ---------------------------------------------------------------- adaptive

streaming::AdaptiveRateController::Config ladder_config() {
  streaming::AdaptiveRateController::Config cfg;
  cfg.ladder_bps = video::netflix_rate_ladder();
  return cfg;
}

TEST(AdaptiveControllerTest, SeedPicksHighestSafeRate) {
  streaming::AdaptiveRateController c{ladder_config()};
  c.seed(10e6);
  EXPECT_DOUBLE_EQ(c.current_rate_bps(), video::netflix_rate_ladder().back());
  c.seed(1e6);  // 0.8 MB/s budget -> 560 kbps rung
  EXPECT_DOUBLE_EQ(c.current_rate_bps(), 560e3);
  c.seed(0.0);
  EXPECT_DOUBLE_EQ(c.current_rate_bps(), video::netflix_rate_ladder().front());
}

TEST(AdaptiveControllerTest, UpshiftsOneRungWithFullBuffer) {
  streaming::AdaptiveRateController c{ladder_config()};
  c.seed(1e6);
  const auto start = c.current_index();
  // Fast transfers with a comfortable buffer: climbs one rung per block.
  bool switched = c.on_block(2e6, 0.5, 60.0);  // 32 Mbps sample
  EXPECT_TRUE(switched);
  EXPECT_EQ(c.current_index(), start + 1);
  EXPECT_EQ(c.switch_count(), 1U);
}

TEST(AdaptiveControllerTest, NoUpshiftWithLowBuffer) {
  streaming::AdaptiveRateController c{ladder_config()};
  c.seed(1e6);
  EXPECT_FALSE(c.on_block(2e6, 0.5, 5.0));  // plenty of bandwidth, thin buffer
}

TEST(AdaptiveControllerTest, EmergencyDownshiftJumpsToSustainableRate) {
  streaming::AdaptiveRateController c{ladder_config()};
  c.seed(100e6);
  ASSERT_EQ(c.current_rate_bps(), video::netflix_rate_ladder().back());
  // Throughput collapses and the buffer is nearly dry: jump down.
  bool switched = false;
  for (int i = 0; i < 6 && !switched; ++i) {
    switched = c.on_block(1e6, 16.0, 3.0);  // 0.5 Mbps samples
  }
  EXPECT_TRUE(switched);
  EXPECT_LT(c.current_rate_bps(), video::netflix_rate_ladder().back());
}

TEST(AdaptiveControllerTest, GradualDownshiftWithHealthyBuffer) {
  streaming::AdaptiveRateController c{ladder_config()};
  c.seed(100e6);
  const auto start = c.current_index();
  // Tank the EWMA while the buffer is still healthy: steps down one rung.
  bool switched = false;
  for (int i = 0; i < 10 && !switched; ++i) switched = c.on_block(1e6, 8.0, 30.0);
  EXPECT_TRUE(switched);
  EXPECT_EQ(c.current_index(), start - 1);
}

TEST(AdaptiveControllerTest, ValidatesConfig) {
  streaming::AdaptiveRateController::Config bad;
  EXPECT_THROW((streaming::AdaptiveRateController{bad}), std::invalid_argument);
  bad.ladder_bps = {2e6, 1e6};  // not ascending
  EXPECT_THROW((streaming::AdaptiveRateController{bad}), std::invalid_argument);
  bad = ladder_config();
  bad.safety_factor = 0.0;
  EXPECT_THROW((streaming::AdaptiveRateController{bad}), std::invalid_argument);
}

struct AdaptiveHarness {
  AdaptiveHarness(double down_bps, std::uint64_t seed)
      : rng{seed}, path{sim, profile(down_bps), rng}, fabric{sim, path} {}
  static net::NetworkProfile profile(double down_bps) {
    auto p = net::profile_for(net::Vantage::kAcademic);
    p.loss_rate = 0.0;
    p.down_bps = down_bps;
    return p;
  }
  sim::Simulator sim;
  sim::Rng rng;
  net::Path path;
  tcp::Fabric fabric;
};

TEST(AdaptiveNetflixTest, SettlesAtSustainableRateOnSlowLink) {
  AdaptiveHarness h{3e6, 5};
  video::VideoMeta v;
  v.id = "a";
  v.duration_s = 3600.0;
  v.encoding_bps = 3.6e6;
  v.available_rates_bps = video::netflix_rate_ladder();
  streaming::FetchManager fm{h.sim, h.fabric, v, {}, {}};
  auto profile = streaming::NetflixClient::Profile::pc();
  profile.adaptive = true;
  // Pretend the client believes more bandwidth exists than the link has.
  streaming::NetflixClient client{h.sim, fm, v, profile, 50e6, {}};
  client.start();
  h.sim.run_until(sim::SimTime::from_seconds(300.0));
  // On a 3 Mbps link the sustainable rung (at safety 0.75) is 1750 kbps.
  EXPECT_LE(client.selected_rate_bps(), 2350e3);
  EXPECT_GE(client.selected_rate_bps(), 1050e3);
}

TEST(AdaptiveNetflixTest, DownshiftsWhenBandwidthDropsMidStream) {
  AdaptiveHarness h{50e6, 6};
  video::VideoMeta v;
  v.id = "b";
  v.duration_s = 3600.0;
  v.encoding_bps = 3.6e6;
  v.available_rates_bps = video::netflix_rate_ladder();
  streaming::FetchManager fm{h.sim, h.fabric, v, {}, {}};
  auto profile = streaming::NetflixClient::Profile::pc();
  profile.adaptive = true;
  streaming::NetflixClient client{h.sim, fm, v, profile, 50e6, {}};
  client.start();
  h.sim.run_until(sim::SimTime::from_seconds(60.0));
  EXPECT_DOUBLE_EQ(client.selected_rate_bps(), video::netflix_rate_ladder().back());
  // Congestion onset: the bottleneck collapses to 1.5 Mbps.
  h.path.down().set_rate(1.5e6);
  h.sim.run_until(sim::SimTime::from_seconds(400.0));
  EXPECT_LT(client.selected_rate_bps(), video::netflix_rate_ladder().back());
  EXPECT_GE(client.rate_switches(), 1U);
}

TEST(AdaptiveNetflixTest, FixedModeNeverSwitches) {
  AdaptiveHarness h{50e6, 7};
  video::VideoMeta v;
  v.id = "c";
  v.duration_s = 3600.0;
  v.encoding_bps = 3.6e6;
  v.available_rates_bps = video::netflix_rate_ladder();
  streaming::FetchManager fm{h.sim, h.fabric, v, {}, {}};
  streaming::NetflixClient client{h.sim, fm, v, streaming::NetflixClient::Profile::pc(), 50e6,
                                  {}};
  client.start();
  h.sim.run_until(sim::SimTime::from_seconds(120.0));
  h.path.down().set_rate(1e6);
  h.sim.run_until(sim::SimTime::from_seconds(240.0));
  EXPECT_EQ(client.rate_switches(), 0U);
  EXPECT_DOUBLE_EQ(client.selected_rate_bps(), video::netflix_rate_ladder().back());
}

TEST(LinkSetRateTest, Validates) {
  sim::Simulator sim;
  sim::Rng rng{1};
  net::Link link{sim, net::Link::Config{}, nullptr, rng};
  EXPECT_THROW(link.set_rate(0.0), std::invalid_argument);
  link.set_rate(5e6);
  EXPECT_DOUBLE_EQ(link.config().rate_bps, 5e6);
}

}  // namespace
}  // namespace vstream
