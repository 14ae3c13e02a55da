// End-to-end integration tests: session -> capture -> pcap file -> reload
// -> analysis equivalence; cross-validation of independent estimators; and
// paper-shape invariants that span multiple modules.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "analysis/periodicity.hpp"
#include "analysis/report.hpp"
#include "capture/pcap.hpp"
#include "model/interruption.hpp"
#include "net/profile.hpp"
#include "streaming/session_builder.hpp"
#include "video/datasets.hpp"

namespace vstream {
namespace {

using streaming::Application;
using streaming::Service;
using video::Container;

streaming::SessionConfig base_config(Container container, Application app,
                                     net::Vantage vantage = net::Vantage::kResearch) {
  video::VideoMeta meta;
  meta.id = "it";
  meta.duration_s = 600.0;
  meta.encoding_bps = 1e6;
  meta.resolution = video::Resolution::k360p;
  meta.container = container;
  return streaming::SessionBuilder{}
      .service(Service::kYouTube)
      .container(container)
      .application(app)
      .vantage(vantage)
      .video(meta)
      .capture_duration_s(120.0)
      .seed(314)
      .build();
}

TEST(IntegrationTest, PcapRoundTripPreservesAnalysis) {
  const auto cfg = base_config(Container::kFlash, Application::kInternetExplorer);
  const auto result = streaming::run_session(cfg);
  const std::string path = "/tmp/vstream_integration.pcap";
  capture::write_pcap(result.trace, path);
  auto reloaded = capture::read_pcap(path);
  std::remove(path.c_str());

  const auto direct = analysis::analyze_on_off(result.trace);
  const auto from_file = analysis::analyze_on_off(reloaded);
  EXPECT_EQ(direct.on_periods.size(), from_file.on_periods.size());
  EXPECT_EQ(direct.total_bytes, from_file.total_bytes);
  EXPECT_NEAR(direct.buffering_end_s, from_file.buffering_end_s, 1e-3);
  EXPECT_NEAR(direct.median_block_bytes(), from_file.median_block_bytes(), 1.0);

  const auto d1 = analysis::classify_strategy(direct, result.trace);
  const auto d2 = analysis::classify_strategy(from_file, reloaded);
  EXPECT_EQ(d1.strategy, d2.strategy);
}

TEST(IntegrationTest, PeriodicityAgreesWithPacedGroundTruth) {
  auto cfg = base_config(Container::kFlash, Application::kFirefox);
  cfg.bandwidth_jitter = 0.0;
  const auto result = streaming::run_session(cfg);
  const auto periodicity = analysis::estimate_cycle_period(result.trace);
  ASSERT_TRUE(periodicity.periodic);
  const double truth = analysis::paced_cycle_duration_s(64 * 1024, 1.25, 1e6);
  EXPECT_NEAR(periodicity.period_s, truth, truth * 0.25);
}

TEST(IntegrationTest, ReportConsistentWithSessionResult) {
  const auto cfg = base_config(Container::kHtml5, Application::kInternetExplorer);
  const auto result = streaming::run_session(cfg);
  analysis::ReportOptions opts;
  opts.encoding_bps = result.encoding_bps_true;
  const auto report = analysis::build_report(result.trace, opts);
  EXPECT_EQ(report.strategy, analysis::Strategy::kShortOnOff);
  EXPECT_GT(report.zero_window_episodes, 5U);  // IE pull throttling signature
  EXPECT_EQ(report.connections, result.connections);
  // Total seen on the wire >= bytes the application consumed.
  EXPECT_GE(report.total_mb * 1048576.0, static_cast<double>(result.bytes_downloaded) * 0.98);
}

TEST(IntegrationTest, InterruptedSessionMatchesModelPrediction) {
  auto cfg = base_config(Container::kFlash, Application::kInternetExplorer);
  cfg.capture_duration_s = 400.0;
  cfg.watch_fraction = 0.3;
  cfg.bandwidth_jitter = 0.0;
  const auto result = streaming::run_session(cfg);
  ASSERT_TRUE(result.player.interrupted);

  model::InterruptionParams p;
  p.encoding_bps = 1e6;
  p.duration_s = 600.0;
  p.buffered_playback_s = 40.0;
  p.accumulation_ratio = 1.25;
  p.beta = 0.3;
  const double predicted = model::unused_bytes(p);
  const double simulated = static_cast<double>(result.player.unused_bytes());
  // Within 30%: the model ignores in-flight data and burst jitter.
  EXPECT_NEAR(simulated, predicted, predicted * 0.3);
}

TEST(IntegrationTest, AccumulationRatioAboveOneKeepsPlayerFed) {
  // Paper Section 2: ratio > 1 means the buffer grows; no stalls after start.
  for (const auto vantage : {net::Vantage::kResearch, net::Vantage::kHome}) {
    const auto cfg = base_config(Container::kFlash, Application::kChrome, vantage);
    const auto result = streaming::run_session(cfg);
    EXPECT_EQ(result.player.stall_count, 0U) << net::vantage_name(vantage);
    EXPECT_GT(result.player.watched_s, 100.0) << net::vantage_name(vantage);
  }
}

TEST(IntegrationTest, RetransmissionMediansTrackPaperCalibration) {
  // Section 5.1.1: median retransmission 1.02% Residence, 0.76% Academic,
  // negligible elsewhere. Check the simulated medians match the calibration
  // to within a factor ~2 (small sample).
  for (const auto& [vantage, expected] :
       {std::pair{net::Vantage::kResidence, 0.0102}, {net::Vantage::kAcademic, 0.0076}}) {
    std::vector<double> fractions;
    for (std::uint64_t seed = 0; seed < 7; ++seed) {
      auto cfg = base_config(Container::kFlash, Application::kFirefox, vantage);
      cfg.seed = 9200 + seed;
      const auto result = streaming::run_session(cfg);
      fractions.push_back(capture::TraceView{result.trace}.retransmission_fraction());
    }
    std::sort(fractions.begin(), fractions.end());
    const double median = fractions[fractions.size() / 2];
    EXPECT_GT(median, expected * 0.4) << net::vantage_name(vantage);
    EXPECT_LT(median, expected * 2.5) << net::vantage_name(vantage);
  }
}

TEST(IntegrationTest, BufferingSmallerOnLossyNetworksArtifact) {
  // The paper's loss-sensitivity artifact (Fig 3a discussion): measured
  // buffering on the lossy Academic network is, in the median, no larger
  // than on the clean Research network.
  std::vector<double> research;
  std::vector<double> academic;
  for (std::uint64_t seed = 0; seed < 9; ++seed) {
    auto cfg = base_config(Container::kFlash, Application::kFirefox, net::Vantage::kResearch);
    cfg.seed = 9500 + seed;
    research.push_back(
        static_cast<double>(analysis::analyze_on_off(streaming::run_session(cfg).trace)
                                .buffering_bytes));
    cfg = base_config(Container::kFlash, Application::kFirefox, net::Vantage::kAcademic);
    cfg.seed = 9500 + seed;
    academic.push_back(
        static_cast<double>(analysis::analyze_on_off(streaming::run_session(cfg).trace)
                                .buffering_bytes));
  }
  std::sort(research.begin(), research.end());
  std::sort(academic.begin(), academic.end());
  EXPECT_LE(academic[academic.size() / 2], research[research.size() / 2] * 1.15);
}

}  // namespace
}  // namespace vstream
