// Tests for the auxiliary-traffic model and the video-connection filtering
// step of the paper's methodology (Section 2).
#include <gtest/gtest.h>

#include "analysis/onoff.hpp"
#include "analysis/strategy.hpp"
#include "net/profile.hpp"
#include "streaming/auxiliary.hpp"
#include "streaming/session_builder.hpp"

namespace vstream {
namespace {

streaming::SessionConfig flash_config(bool aux) {
  video::VideoMeta meta;
  meta.id = "aux";
  meta.duration_s = 600.0;
  meta.encoding_bps = 1e6;
  return streaming::SessionBuilder{}
      .service(streaming::Service::kYouTube)
      .container(video::Container::kFlash)
      .application(streaming::Application::kInternetExplorer)
      .vantage(net::Vantage::kResearch)
      .video(meta)
      .capture_duration_s(120.0)
      .seed(99)
      .auxiliary_traffic(aux)
      .build();
}

TEST(AuxiliaryTest, FullTraceContainsAuxAndVideoHosts) {
  auto cfg = flash_config(true);
  cfg.keep_full_trace = true;
  const auto result = streaming::run_session(cfg);
  const auto video = result.video_trace();
  EXPECT_GT(capture::TraceView{result.trace}.connection_count(), video.connection_count());
  bool saw_aux = false;
  bool saw_video = false;
  for (const auto& p : result.trace.packets) {
    (p.host == 0 ? saw_video : saw_aux) = true;
  }
  EXPECT_TRUE(saw_video);
  EXPECT_TRUE(saw_aux);
  // The video view is pure video.
  for (const auto& p : video) EXPECT_EQ(p.host, 0);
}

TEST(AuxiliaryTest, FilteringReproducesAuxFreeAnalysis) {
  // Classification and key metrics must be identical whether the session
  // carried auxiliary traffic or not — because the filter removes it.
  const auto with_aux = streaming::run_session(flash_config(true));
  const auto without = streaming::run_session(flash_config(false));

  const auto a1 = analysis::analyze_on_off(with_aux.trace);
  const auto a2 = analysis::analyze_on_off(without.trace);
  const auto d1 = analysis::classify_strategy(a1, with_aux.trace);
  const auto d2 = analysis::classify_strategy(a2, without.trace);
  EXPECT_EQ(d1.strategy, d2.strategy);
  EXPECT_EQ(d1.strategy, analysis::Strategy::kShortOnOff);
  EXPECT_NEAR(a1.median_block_bytes(), a2.median_block_bytes(), 2000.0);
  // Aux traffic shares the access link, so rates can differ slightly, but
  // the headline buffering amount stays in the same band.
  EXPECT_NEAR(static_cast<double>(a1.buffering_bytes),
              static_cast<double>(a2.buffering_bytes), 0.2 * a2.buffering_bytes);
}

TEST(AuxiliaryTest, UnfilteredAnalysisWouldBePolluted) {
  // Sanity check that the filtering step actually matters: the full trace
  // has more connections and more bytes than the video view over it.
  auto cfg = flash_config(true);
  cfg.keep_full_trace = true;
  const auto result = streaming::run_session(cfg);
  const auto video = result.video_trace();
  const capture::TraceView all{result.trace};
  EXPECT_GT(all.down_payload_bytes(), video.down_payload_bytes());
  EXPECT_GE(all.connection_count() - video.connection_count(), 3U);
}

TEST(AuxiliaryTest, GeneratorProducesBoundedTraffic) {
  sim::Simulator sim;
  sim::Rng rng{7};
  auto profile = net::profile_for(net::Vantage::kResearch);
  profile.loss_rate = 0.0;
  net::Path path{sim, profile, rng};
  tcp::Fabric fabric{sim, path};
  streaming::AuxiliaryTraffic::Config cfg;
  streaming::AuxiliaryTraffic aux{sim, fabric, cfg, rng.fork("a")};
  aux.start();
  EXPECT_FALSE(aux.idle());  // asset openings scheduled
  sim.run_until(sim::SimTime::from_seconds(120.0));
  EXPECT_FALSE(aux.idle());  // beacon timer armed
  aux.stop();
  EXPECT_TRUE(aux.idle());
  EXPECT_GE(aux.connections_opened(), 3U);  // assets + beacon channel
  EXPECT_GT(aux.bytes_fetched(), 40U * 1024);
  EXPECT_LT(aux.bytes_fetched(), 3U * 1024 * 1024);  // small vs video traffic

  // Stopped before its assets open: the openings still fire (as no-ops),
  // so the generator is not idle until they have.
  cfg.beacon_period_s = 0.0;
  streaming::AuxiliaryTraffic early{sim, fabric, cfg, rng.fork("c")};
  early.start();
  early.stop();
  EXPECT_FALSE(early.idle());
  sim.run_until(sim.now() + sim::Duration::seconds(cfg.start_spread_s));
  EXPECT_TRUE(early.idle());
  EXPECT_EQ(early.connections_opened(), 0U);
}

TEST(AuxiliaryTest, BeaconsRecurPeriodically) {
  sim::Simulator sim;
  sim::Rng rng{8};
  auto profile = net::profile_for(net::Vantage::kResearch);
  profile.loss_rate = 0.0;
  net::Path path{sim, profile, rng};
  tcp::Fabric fabric{sim, path};
  streaming::AuxiliaryTraffic::Config cfg;
  cfg.asset_count_min = 0;
  cfg.asset_count_max = 0;
  cfg.beacon_period_s = 10.0;
  cfg.beacon_bytes = 1024;
  streaming::AuxiliaryTraffic aux{sim, fabric, cfg, rng.fork("b")};
  aux.start();
  sim.run_until(sim::SimTime::from_seconds(65.0));
  // ~6 beacons of ~1 kB each (plus response heads).
  EXPECT_GE(aux.bytes_fetched(), 5U * 1024);
  EXPECT_LE(aux.bytes_fetched(), 9U * 1024);
}

}  // namespace
}  // namespace vstream
