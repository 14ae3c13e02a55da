// Tests for the streaming layer: player, server pacing, client throttling
// policies, fetch machinery, and full Table-1 sessions.
#include <gtest/gtest.h>

#include "analysis/onoff.hpp"
#include "analysis/strategy.hpp"
#include "capture/recorder.hpp"
#include "http/exchange.hpp"
#include "net/path.hpp"
#include "net/profile.hpp"
#include "streaming/clients.hpp"
#include "streaming/fetch.hpp"
#include "streaming/ipad_client.hpp"
#include "streaming/netflix_client.hpp"
#include "streaming/player.hpp"
#include "streaming/session_builder.hpp"
#include "streaming/video_server.hpp"
#include "video/datasets.hpp"

namespace vstream::streaming {
namespace {

using sim::SimTime;
using video::Container;

net::NetworkProfile lossless() {
  auto p = net::profile_for(net::Vantage::kResearch);
  p.loss_rate = 0.0;
  return p;
}

video::VideoMeta test_video(double duration_s = 300.0, double rate_bps = 1e6,
                            Container container = Container::kFlash) {
  video::VideoMeta v;
  v.id = "test";
  v.duration_s = duration_s;
  v.encoding_bps = rate_bps;
  v.container = container;
  return v;
}

// ----------------------------------------------------------------- player

TEST(PlayerTest, StartsAfterThreshold) {
  sim::Simulator sim;
  PlayerConfig cfg;
  cfg.encoding_bps = 1e6;
  cfg.duration_s = 100.0;
  cfg.start_threshold_s = 2.0;
  Player player{sim, cfg};
  player.on_bytes_downloaded(100'000);  // 0.8 s of content: below threshold
  sim.run_until(SimTime::from_seconds(1.0));
  EXPECT_FALSE(player.playing());
  player.on_bytes_downloaded(300'000);  // now 2.4 s buffered (minus played)
  sim.run_until(SimTime::from_seconds(2.0));
  EXPECT_TRUE(player.playing());
  EXPECT_TRUE(player.stats().started);
}

TEST(PlayerTest, ConsumesAtEncodingRate) {
  sim::Simulator sim;
  PlayerConfig cfg;
  cfg.encoding_bps = 1e6;
  cfg.duration_s = 100.0;
  Player player{sim, cfg};
  player.on_bytes_downloaded(10'000'000);  // plenty
  sim.run_until(SimTime::from_seconds(10.0));
  EXPECT_NEAR(player.stats().watched_s, 10.0, 0.3);
  EXPECT_NEAR(player.stats().consumed_bytes, 10.0 * 1e6 / 8, 1e5);
}

TEST(PlayerTest, StallsWhenBufferEmpties) {
  sim::Simulator sim;
  PlayerConfig cfg;
  cfg.encoding_bps = 1e6;
  cfg.duration_s = 100.0;
  cfg.start_threshold_s = 1.0;
  Player player{sim, cfg};
  player.on_bytes_downloaded(250'000);  // 2 s of content
  sim.run_until(SimTime::from_seconds(5.0));
  EXPECT_GE(player.stats().stall_count, 1U);
  EXPECT_FALSE(player.playing());
  // More data resumes playback.
  player.on_bytes_downloaded(1'000'000);
  sim.run_until(SimTime::from_seconds(6.0));
  EXPECT_TRUE(player.playing());
  EXPECT_GT(player.stats().stall_time_s, 0.0);
}

TEST(PlayerTest, InterruptsAtWatchFraction) {
  sim::Simulator sim;
  PlayerConfig cfg;
  cfg.encoding_bps = 1e6;
  cfg.duration_s = 100.0;
  cfg.watch_fraction = 0.2;
  Player player{sim, cfg};
  bool interrupted = false;
  player.set_on_interrupt([&] { interrupted = true; });
  player.on_bytes_downloaded(100'000'000);
  sim.run_until(SimTime::from_seconds(60.0));
  EXPECT_TRUE(interrupted);
  EXPECT_TRUE(player.stats().interrupted);
  EXPECT_NEAR(player.stats().watched_s, 20.0, 0.5);
  // Unused bytes: everything downloaded beyond the watched 20 s.
  EXPECT_NEAR(player.stats().unused_bytes(), 100'000'000 - 20.0 * 1e6 / 8, 1e5);
}

TEST(PlayerTest, FinishesWholeVideo) {
  sim::Simulator sim;
  PlayerConfig cfg;
  cfg.encoding_bps = 1e6;
  cfg.duration_s = 10.0;
  Player player{sim, cfg};
  bool finished = false;
  player.set_on_finished([&] { finished = true; });
  player.on_bytes_downloaded(2'000'000);
  sim.run_until(SimTime::from_seconds(30.0));
  EXPECT_TRUE(finished);
  EXPECT_TRUE(player.stats().finished);
  EXPECT_NEAR(player.stats().watched_s, 10.0, 0.2);
}

TEST(PlayerTest, ValidatesConfig) {
  sim::Simulator sim;
  PlayerConfig bad;
  bad.encoding_bps = 0.0;
  EXPECT_THROW((Player{sim, bad}), std::invalid_argument);
  bad = PlayerConfig{};
  bad.watch_fraction = 1.5;
  EXPECT_THROW((Player{sim, bad}), std::invalid_argument);
}

// ------------------------------------------------------- server + clients

struct Wire {
  Wire() : rng{11}, path{sim, lossless(), rng}, fabric{sim, path} {}
  sim::Simulator sim;
  sim::Rng rng;
  net::Path path;
  tcp::Fabric fabric;
};

TEST(VideoServerTest, BulkServesWholeVideoImmediately) {
  Wire w;
  auto& conn = w.fabric.create_connection({}, {});
  const auto video = test_video(80.0, 1e6);  // 10 MB
  VideoStreamServer server{w.sim, conn.server(), video, ServerPacing::bulk()};
  GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("test"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(30.0));
  EXPECT_GE(client.bytes_read(), video.size_bytes());
  ASSERT_EQ(client.responses().size(), 1U);
  EXPECT_EQ(client.responses()[0].content_length, video.size_bytes());
}

TEST(VideoServerTest, PacedBlocksProduceShortOnOff) {
  Wire w;
  tcp::TcpOptions copt;
  copt.recv_buffer_bytes = 512 * 1024;
  auto& conn = w.fabric.create_connection(copt, {});
  const auto video = test_video(600.0, 1e6);
  VideoStreamServer server{w.sim, conn.server(), video, ServerPacing::youtube_flash()};
  capture::TraceRecorder recorder{w.sim, w.path};
  recorder.start();
  GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("test"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(120.0));
  const auto analysis = analysis::analyze_on_off(recorder.trace());
  ASSERT_TRUE(analysis.has_steady_state());
  // 40 s burst at 1 Mbps = 5 MB.
  EXPECT_NEAR(analysis.buffering_bytes, 5e6, 5e5);
  EXPECT_NEAR(analysis.median_block_bytes(), 64.0 * 1024, 2000.0);
  EXPECT_NEAR(analysis.accumulation_ratio(1e6), 1.25, 0.1);
}

TEST(VideoServerTest, RangedRequestServesOnlyRange) {
  Wire w;
  auto& conn = w.fabric.create_connection({}, {});
  VideoStreamServer server{w.sim, conn.server(), test_video(), ServerPacing::bulk()};
  GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("test", http::ByteRange{0, 999'999}));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(10.0));
  ASSERT_EQ(client.responses().size(), 1U);
  EXPECT_EQ(client.responses()[0].status, 206);
  EXPECT_EQ(client.responses()[0].content_length, 1'000'000U);
  EXPECT_NEAR(client.bytes_read(), 1'000'000.0, 300.0);  // + head bytes
}

TEST(VideoServerTest, InvalidRangeGets416) {
  Wire w;
  auto& conn = w.fabric.create_connection({}, {});
  const auto video = test_video(10.0, 1e6);  // 1.25 MB
  VideoStreamServer server{w.sim, conn.server(), video, ServerPacing::bulk()};
  GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(
        http::make_video_request("test", http::ByteRange{2'000'000, 3'000'000}));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(5.0));
  ASSERT_EQ(client.responses().size(), 1U);
  EXPECT_EQ(client.responses()[0].status, 416);
}

TEST(PullThrottleClientTest, BuffersGreedilyThenPullsQuanta) {
  Wire w;
  tcp::TcpOptions copt;
  copt.recv_buffer_bytes = 256 * 1024;
  auto& conn = w.fabric.create_connection(copt, {});
  const auto video = test_video(600.0, 1e6);
  VideoStreamServer server{w.sim, conn.server(), video, ServerPacing::bulk()};
  PullThrottleClient::Config cfg;
  cfg.buffering_target_bytes = 4 * 1024 * 1024;
  cfg.pull_quantum_bytes = 256 * 1024;
  cfg.accumulation_ratio = 1.06;
  cfg.encoding_bps = 1e6;
  PullThrottleClient client{w.sim, conn.client(), cfg, {}};
  capture::TraceRecorder recorder{w.sim, w.path};
  recorder.start();
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("test"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(90.0));
  EXPECT_TRUE(client.in_steady_state());
  const auto analysis = analysis::analyze_on_off(recorder.trace());
  ASSERT_TRUE(analysis.has_steady_state());
  EXPECT_NEAR(analysis.median_block_bytes(), 256.0 * 1024, 40'000.0);
  EXPECT_NEAR(analysis.accumulation_ratio(1e6), 1.06, 0.15);
  // The rwnd signature of client throttling (Fig 2b).
  EXPECT_GT(analysis::count_zero_window_episodes(recorder.trace()), 5U);
}

TEST(PullThrottleClientTest, NoOffPeriodsWhenBandwidthBelowTarget) {
  // Paper §3: OFF periods only exist when the available bandwidth exceeds
  // the steady-state rate. Starve the link below the target rate.
  auto profile = lossless();
  profile.down_bps = 0.8e6;
  sim::Simulator sim;
  sim::Rng rng{1};
  net::Path path{sim, profile, rng};
  tcp::Fabric fabric{sim, path};
  tcp::TcpOptions copt;
  copt.recv_buffer_bytes = 256 * 1024;
  auto& conn = fabric.create_connection(copt, {});
  const auto video = test_video(600.0, 1e6);
  VideoStreamServer server{sim, conn.server(), video, ServerPacing::bulk()};
  PullThrottleClient::Config cfg;
  cfg.buffering_target_bytes = 1 * 1024 * 1024;
  cfg.pull_quantum_bytes = 256 * 1024;
  cfg.accumulation_ratio = 1.06;
  cfg.encoding_bps = 1e6;
  PullThrottleClient client{sim, conn.client(), cfg, {}};
  capture::TraceRecorder recorder{sim, path};
  recorder.start();
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("test"));
  });
  conn.open();
  sim.run_until(SimTime::from_seconds(120.0));
  const auto analysis = analysis::analyze_on_off(recorder.trace());
  // Starved link: transfer is continuous, no real OFF periods develop.
  EXPECT_LT(analysis.off_time_fraction(), 0.1);
}

TEST(PullThrottleClientTest, ValidatesConfig) {
  Wire w;
  auto& conn = w.fabric.create_connection({}, {});
  PullThrottleClient::Config bad;
  bad.pull_quantum_bytes = 0;
  EXPECT_THROW((PullThrottleClient{w.sim, conn.client(), bad, {}}), std::invalid_argument);
  bad = PullThrottleClient::Config{};
  bad.encoding_bps = 0.0;
  EXPECT_THROW((PullThrottleClient{w.sim, conn.client(), bad, {}}), std::invalid_argument);
}

// ------------------------------------------------------------------ fetch

TEST(FetchManagerTest, FreshConnectionPerFetch) {
  Wire w;
  FetchManager fm{w.sim, w.fabric, test_video(600.0, 1e6), {}, {}};
  int done = 0;
  std::uint64_t got = 0;
  for (int i = 0; i < 3; ++i) {
    fm.fetch_range(http::ByteRange{static_cast<std::uint64_t>(i) * 100'000,
                                   static_cast<std::uint64_t>(i) * 100'000 + 99'999},
                   [&](std::uint64_t n) { got += n; }, [&] { ++done; });
  }
  w.sim.run_until(SimTime::from_seconds(10.0));
  EXPECT_EQ(done, 3);
  EXPECT_EQ(got, 300'000U);
  EXPECT_EQ(fm.connections_opened(), 3U);
  EXPECT_EQ(fm.body_bytes_fetched(), 300'000U);
}

TEST(FetchManagerTest, PersistentConnectionReused) {
  Wire w;
  FetchManager fm{w.sim, w.fabric, test_video(600.0, 1e6), {}, {}};
  int done = 0;
  fm.fetch_range_persistent(http::ByteRange{0, 99'999}, {}, [&] { ++done; });
  fm.fetch_range_persistent(http::ByteRange{100'000, 199'999}, {}, [&] { ++done; });
  w.sim.run_until(SimTime::from_seconds(10.0));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(fm.connections_opened(), 1U);
}

TEST(FetchManagerTest, StopAbortsFutureFetches) {
  Wire w;
  FetchManager fm{w.sim, w.fabric, test_video(), {}, {}};
  fm.stop();
  int done = 0;
  fm.fetch_range(http::ByteRange{0, 999}, {}, [&] { ++done; });
  w.sim.run_until(SimTime::from_seconds(5.0));
  EXPECT_EQ(done, 0);
  EXPECT_EQ(fm.connections_opened(), 0U);
}

// ------------------------------------------------------- composite clients

TEST(IpadClientTest, MixesChunkSizes) {
  Wire w;
  const auto video = test_video(900.0, 1.2e6, Container::kHtml5);
  FetchManager fm{w.sim, w.fabric, video, {}, {}};
  IpadYouTubeClient::Config cfg;
  cfg.initial_buffer_bytes = 6 * 1024 * 1024;
  IpadYouTubeClient client{w.sim, fm, video, cfg, {}};
  capture::TraceRecorder recorder{w.sim, w.path};
  recorder.start();
  client.start();
  w.sim.run_until(SimTime::from_seconds(180.0));
  EXPECT_TRUE(client.in_steady_state());
  EXPECT_GT(fm.connections_opened(), 10U);
  const auto analysis = analysis::analyze_on_off(recorder.trace());
  const auto decision = analysis::classify_strategy(analysis, recorder.trace());
  EXPECT_EQ(decision.strategy, analysis::Strategy::kMultiple);
}

TEST(IpadClientTest, LowRateVideoUsesOnePersistentConnection) {
  // The paper's Video2 (Fig 7a): plain short cycles over a single TCP
  // connection, in contrast to Video1's dozens of ranged connections.
  Wire w;
  const auto video = test_video(900.0, 0.35e6, Container::kHtml5);
  FetchManager fm{w.sim, w.fabric, video, {}, {}};
  IpadYouTubeClient::Config cfg;
  cfg.initial_buffer_bytes = 2 * 1024 * 1024;
  IpadYouTubeClient client{w.sim, fm, video, cfg, {}};
  EXPECT_TRUE(client.single_connection_mode());
  capture::TraceRecorder recorder{w.sim, w.path};
  recorder.start();
  client.start();
  w.sim.run_until(SimTime::from_seconds(180.0));
  EXPECT_EQ(fm.connections_opened(), 1U);
  const auto analysis = analysis::analyze_on_off(recorder.trace());
  const auto decision = analysis::classify_strategy(analysis, recorder.trace());
  EXPECT_EQ(decision.strategy, analysis::Strategy::kShortOnOff);
}

TEST(IpadClientTest, BlockSizeScalesWithEncodingRate) {
  Wire w;
  const auto slow = test_video(900.0, 0.3e6, Container::kHtml5);
  const auto fast = test_video(900.0, 2.7e6, Container::kHtml5);
  FetchManager fm1{w.sim, w.fabric, slow, {}, {}};
  FetchManager fm2{w.sim, w.fabric, fast, {}, {}};
  IpadYouTubeClient c1{w.sim, fm1, slow, {}, {}};
  IpadYouTubeClient c2{w.sim, fm2, fast, {}, {}};
  EXPECT_LT(c1.block_bytes(), c2.block_bytes());
  EXPECT_GE(c1.block_bytes(), 64U * 1024);
  EXPECT_LE(c2.block_bytes(), 8U * 1024 * 1024);
}

TEST(NetflixClientTest, RateSelectionRespectsBandwidth) {
  Wire w;
  auto video = test_video(3600.0, 3.6e6, Container::kSilverlight);
  video.available_rates_bps = video::netflix_rate_ladder();
  FetchManager fm{w.sim, w.fabric, video, {}, {}};
  NetflixClient fast{w.sim, fm, video, NetflixClient::Profile::pc(), 100e6, {}};
  EXPECT_DOUBLE_EQ(fast.selected_rate_bps(), video::netflix_rate_ladder().back());
  NetflixClient slow{w.sim, fm, video, NetflixClient::Profile::pc(), 1.0e6, {}};
  EXPECT_LT(slow.selected_rate_bps(), 1.0e6);
}

TEST(NetflixClientTest, BufferingDownloadsAllLadderRates) {
  Wire w;
  auto video = test_video(3600.0, 3.6e6, Container::kSilverlight);
  video.available_rates_bps = video::netflix_rate_ladder();
  FetchManager fm{w.sim, w.fabric, video, {}, {}};
  NetflixClient client{w.sim, fm, video, NetflixClient::Profile::pc(), 100e6, {}};
  client.start();
  // Step until the buffering phase completes, then check the totals before
  // steady-state blocks start accumulating on top.
  double t = 0.5;
  while (!client.in_steady_state() && t < 120.0) {
    w.sim.run_until(SimTime::from_seconds(t));
    t += 0.5;
  }
  EXPECT_TRUE(client.in_steady_state());
  // One connection per ladder rate during buffering.
  EXPECT_GE(fm.connections_opened(), video::netflix_rate_ladder().size());
  EXPECT_NEAR(static_cast<double>(client.bytes_fetched()),
              static_cast<double>(client.buffering_bytes_expected()),
              client.buffering_bytes_expected() * 0.1);
}

TEST(NetflixClientTest, ProfilesMatchPaperScales) {
  const auto pc = NetflixClient::Profile::pc();
  const auto ipad = NetflixClient::Profile::ipad();
  const auto android = NetflixClient::Profile::android();
  // Buffering: PC ~50 MB >> Android ~40 MB >> iPad ~10 MB (Fig 11).
  const auto bytes = [](const NetflixClient::Profile& p) {
    double total = 0.0;
    for (const double r : p.ladder_bps) total += r / 8.0 * p.buffering_fragment_s;
    return total;
  };
  EXPECT_GT(bytes(pc), 40e6);
  EXPECT_LT(bytes(pc), 60e6);
  EXPECT_GT(bytes(android), 30e6);
  EXPECT_LT(bytes(android), bytes(pc));
  EXPECT_LT(bytes(ipad), 15e6);
  // Blocks: Android long (> 2.5 MB), PC/iPad short.
  EXPECT_GT(android.steady_block_bytes, 2.5 * 1024 * 1024);
  EXPECT_LE(pc.steady_block_bytes, static_cast<std::uint64_t>(2.5 * 1024 * 1024));
  EXPECT_FALSE(android.fresh_connection_per_block);
  EXPECT_TRUE(pc.fresh_connection_per_block);
}

// ---------------------------------------------------------------- sessions

TEST(SessionTest, CombinationSupportMatchesTable1) {
  using enum Application;
  EXPECT_TRUE(combination_supported(Service::kYouTube, Container::kFlash, kInternetExplorer));
  EXPECT_FALSE(combination_supported(Service::kYouTube, Container::kFlash, kIosNative));
  EXPECT_FALSE(combination_supported(Service::kYouTube, Container::kFlashHd, kAndroidNative));
  EXPECT_TRUE(combination_supported(Service::kYouTube, Container::kHtml5, kIosNative));
  EXPECT_TRUE(combination_supported(Service::kNetflix, Container::kSilverlight, kChrome));
  EXPECT_FALSE(combination_supported(Service::kNetflix, Container::kFlash, kChrome));
  EXPECT_FALSE(combination_supported(Service::kYouTube, Container::kSilverlight, kChrome));
}

TEST(SessionTest, UnsupportedCombinationThrows) {
  SessionConfig cfg;
  cfg.service = Service::kYouTube;
  cfg.container = Container::kFlash;
  cfg.application = Application::kIosNative;
  cfg.network = lossless();
  cfg.video = test_video();
  EXPECT_THROW((void)run_session(cfg), std::invalid_argument);
}

TEST(SessionTest, InvalidVideoThrows) {
  SessionConfig cfg;
  cfg.network = lossless();
  cfg.video = test_video(0.0);
  EXPECT_THROW((void)run_session(cfg), std::invalid_argument);
}

TEST(SessionTest, DeterministicForSameSeed) {
  const auto cfg = SessionBuilder{}
                       .network(lossless())
                       .video(test_video(300.0, 1e6))
                       .capture_duration_s(30.0)
                       .seed(77)
                       .build();
  const auto a = run_session(cfg);
  const auto b = run_session(cfg);
  EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded);
  EXPECT_EQ(a.trace.packets.size(), b.trace.packets.size());
}

TEST(SessionTest, InterruptionStopsDownload) {
  const auto cfg = SessionBuilder{}
                       .network(lossless())
                       .video(test_video(300.0, 1e6))
                       .capture_duration_s(180.0)
                       .watch_fraction(0.2)  // interrupt after 60 s of content
                       .build();
  const auto result = run_session(cfg);
  EXPECT_TRUE(result.player.interrupted);
  EXPECT_GT(result.interrupted_at_s, 0.0);
  // Unused bytes: buffered-ahead content never watched.
  EXPECT_GT(result.player.unused_bytes(), 0U);
  // The download stopped: total stays well below the full video.
  EXPECT_LT(result.bytes_downloaded, cfg.video.size_bytes());
}

TEST(SessionTest, EncodingRateEstimatedForHtml5ExactForFlash) {
  SessionConfig cfg;
  cfg.network = lossless();
  cfg.video = test_video(300.0, 1e6, Container::kFlash);
  cfg.capture_duration_s = 20.0;
  const auto flash = run_session(cfg);
  EXPECT_DOUBLE_EQ(flash.encoding_bps_estimated, 1e6);  // read from header

  cfg.container = Container::kHtml5;
  cfg.video.container = Container::kHtml5;
  const auto html5 = run_session(cfg);
  EXPECT_NE(html5.encoding_bps_estimated, 1e6);  // Content-Length estimate
  EXPECT_NEAR(html5.encoding_bps_estimated, 1e6, 0.6e6);
}

struct Table1Case {
  Service service;
  Container container;
  Application application;
  analysis::Strategy expected;
  const char* name;
};

// gtest prints a param into each listed test name; without this it would
// dump the struct's bytes, the name pointer included.
void PrintTo(const Table1Case& tc, std::ostream* os) { *os << tc.name; }

class Table1Property : public ::testing::TestWithParam<Table1Case> {};

TEST_P(Table1Property, StrategyMatchesPaper) {
  const auto& tc = GetParam();
  SessionConfig cfg;
  cfg.service = tc.service;
  cfg.container = tc.container;
  cfg.application = tc.application;
  cfg.network = net::profile_for(net::Vantage::kResearch);
  const bool netflix = tc.service == Service::kNetflix;
  const bool hd = tc.container == Container::kFlashHd;
  cfg.video = test_video(netflix ? 3600.0 : 600.0, hd ? 3e6 : 1.2e6,
                         netflix ? Container::kSilverlight : tc.container);
  if (netflix) cfg.video.available_rates_bps = video::netflix_rate_ladder();
  cfg.capture_duration_s = 180.0;
  cfg.seed = 2024;
  const auto result = run_session(cfg);
  const auto analysis = analysis::analyze_on_off(result.trace);
  const auto decision = analysis::classify_strategy(analysis, result.trace);
  EXPECT_EQ(decision.strategy, tc.expected)
      << result.trace.label << ": " << decision.rationale
      << " (median block " << decision.median_block_bytes << ")";
}

constexpr Table1Case kTable1Cases[] = {
    Table1Case{Service::kYouTube, Container::kFlash, Application::kInternetExplorer,
               analysis::Strategy::kShortOnOff, "FlashIE"},
    Table1Case{Service::kYouTube, Container::kFlash, Application::kFirefox,
               analysis::Strategy::kShortOnOff, "FlashFirefox"},
    Table1Case{Service::kYouTube, Container::kFlash, Application::kChrome,
               analysis::Strategy::kShortOnOff, "FlashChrome"},
    Table1Case{Service::kYouTube, Container::kHtml5, Application::kInternetExplorer,
               analysis::Strategy::kShortOnOff, "Html5IE"},
    Table1Case{Service::kYouTube, Container::kHtml5, Application::kFirefox,
               analysis::Strategy::kNoOnOff, "Html5Firefox"},
    Table1Case{Service::kYouTube, Container::kHtml5, Application::kChrome,
               analysis::Strategy::kLongOnOff, "Html5Chrome"},
    Table1Case{Service::kYouTube, Container::kHtml5, Application::kIosNative,
               analysis::Strategy::kMultiple, "Html5Ipad"},
    Table1Case{Service::kYouTube, Container::kHtml5, Application::kAndroidNative,
               analysis::Strategy::kLongOnOff, "Html5Android"},
    Table1Case{Service::kYouTube, Container::kFlashHd, Application::kInternetExplorer,
               analysis::Strategy::kNoOnOff, "FlashHD"},
    Table1Case{Service::kNetflix, Container::kSilverlight, Application::kInternetExplorer,
               analysis::Strategy::kShortOnOff, "NetflixPC"},
    Table1Case{Service::kNetflix, Container::kSilverlight, Application::kIosNative,
               analysis::Strategy::kShortOnOff, "NetflixIpad"},
    Table1Case{Service::kNetflix, Container::kSilverlight, Application::kAndroidNative,
               analysis::Strategy::kLongOnOff, "NetflixAndroid"},
};

INSTANTIATE_TEST_SUITE_P(
    Table1, Table1Property, ::testing::ValuesIn(kTable1Cases),
    [](const ::testing::TestParamInfo<Table1Case>& info) { return info.param.name; });

}  // namespace
}  // namespace vstream::streaming
