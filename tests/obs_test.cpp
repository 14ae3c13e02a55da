// Observability layer: metrics registry, trace bus/sinks, and the
// consistency contracts between live instrumentation and the offline
// trace analysis (zero-window episodes in particular).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "analysis/onoff.hpp"
#include "analysis/report_json.hpp"
#include "capture/recorder.hpp"
#include "http/exchange.hpp"
#include "net/path.hpp"
#include "net/profile.hpp"
#include "obs/context.hpp"
#include "streaming/clients.hpp"
#include "streaming/session_builder.hpp"
#include "streaming/video_server.hpp"
#include "tcp/connection.hpp"

namespace vstream::obs {
namespace {

using sim::SimTime;

// ---- metrics registry ----------------------------------------------------

TEST(ObsMetricsTest, CountersAndGauges) {
  MetricsRegistry reg;
  reg.counter("a").inc();
  reg.counter("a").inc(4);
  EXPECT_EQ(reg.counter("a").value(), 5u);

  reg.gauge("g").set(2.5);
  reg.gauge("g").set_max(1.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 2.5);
  reg.gauge("g").set_max(7.0);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 7.0);
}

TEST(ObsMetricsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  FixedHistogram h{{10.0, 20.0}};
  h.observe(10.0);  // lands in [.., 10]
  h.observe(10.5);  // lands in (10, 20]
  h.observe(20.0);  // lands in (10, 20] — bound itself is included
  h.observe(20.1);  // overflow bucket
  ASSERT_EQ(h.counts().size(), 3u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0 + 10.5 + 20.0 + 20.1);
}

TEST(ObsMetricsTest, HistogramRejectsEmptyOrUnsortedBounds) {
  EXPECT_THROW(FixedHistogram{std::vector<double>{}}, std::invalid_argument);
  EXPECT_THROW((FixedHistogram{{5.0, 1.0}}), std::invalid_argument);
}

TEST(ObsMetricsTest, HistogramPercentilesInterpolateLinearly) {
  MetricsSnapshot::HistogramData h;
  h.bounds = {10.0, 20.0};
  h.counts = {4, 4, 2};  // 4 in [0,10], 4 in (10,20], 2 overflow
  h.count = 10;

  // p20: rank 2 lands in the first bucket, which interpolates from 0.
  EXPECT_DOUBLE_EQ(h.percentile(0.20), 5.0);
  // p50: rank 5 is 1/4 into the second bucket's 4 samples.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 12.5);
  // p90/p99: rank beyond the bounded buckets clamps to the last bound —
  // the overflow bucket has no upper edge to interpolate toward.
  EXPECT_DOUBLE_EQ(h.percentile(0.90), 20.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 20.0);
  // Out-of-range quantiles clamp instead of extrapolating.
  EXPECT_DOUBLE_EQ(h.percentile(1.5), 20.0);

  MetricsSnapshot::HistogramData empty;
  empty.bounds = {10.0};
  empty.counts = {0, 0};
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
}

TEST(ObsMetricsTest, SnapshotJsonCarriesPercentiles) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat", {10.0, 20.0});
  for (int i = 0; i < 4; ++i) h.observe(5.0);
  for (int i = 0; i < 4; ++i) h.observe(15.0);
  h.observe(25.0);
  h.observe(25.0);

  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"p50\":12.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p90\":20"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":20"), std::string::npos) << json;
  // The percentiles sit next to the buckets they derive from.
  EXPECT_EQ(json,
            "{\"counters\":{},\"gauges\":{},\"histograms\":{\"lat\":{\"bounds\":[10,20],"
            "\"counts\":[4,4,2],\"count\":10,\"sum\":130,\"p50\":12.5,\"p90\":20,"
            "\"p99\":20}}}");
}

TEST(ObsMetricsTest, MergeRejectsMismatchedHistogramBounds) {
  MetricsRegistry a;
  a.histogram("h", {1.0, 2.0}).observe(0.5);
  MetricsRegistry with_other_bounds;
  with_other_bounds.histogram("h", {1.0, 4.0}).observe(0.5);

  MetricsSnapshot merged = a.snapshot();
  EXPECT_THROW(merged.merge_from(with_other_bounds.snapshot()), std::invalid_argument);

  // Same name, same bounds: merge is fine and buckets add.
  MetricsRegistry compatible;
  compatible.histogram("h", {1.0, 2.0}).observe(1.5);
  merged.merge_from(compatible.snapshot());
  EXPECT_EQ(merged.histograms.at("h").count, 2u);
}

TEST(ObsMetricsTest, SnapshotJsonIsExact) {
  MetricsRegistry reg;
  reg.counter("tcp.segments_sent").inc(1234);
  reg.counter("net.drops_queue").inc(7);
  reg.gauge("net.queue_high_water_bytes").set(65536.0);
  reg.gauge("sim.sim_wall_ratio").set(0.1);
  auto& h = reg.histogram("server.block_bytes", {1024.0, 65536.0});
  h.observe(800.0);
  h.observe(65536.0);
  h.observe(1e6);

  // Names in order, gauges and sums with every bit of the double (0.1 is
  // not exact), buckets with the inclusive upper edge and the overflow.
  EXPECT_EQ(reg.snapshot().to_json(),
            "{\"counters\":{\"net.drops_queue\":7,\"tcp.segments_sent\":1234},"
            "\"gauges\":{\"net.queue_high_water_bytes\":65536,"
            "\"sim.sim_wall_ratio\":0.10000000000000001},"
            "\"histograms\":{\"server.block_bytes\":{\"bounds\":[1024,65536],"
            "\"counts\":[1,1,1],\"count\":3,\"sum\":1066336,\"p50\":33280,"
            "\"p90\":65536,\"p99\":65536}}}");

  // A gauge that is not finite is written as null, not as a bare token.
  MetricsSnapshot odd;
  odd.gauges["g"] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(odd.to_json(), "{\"counters\":{},\"gauges\":{\"g\":null},\"histograms\":{}}");
}

TEST(ObsMetricsTest, MergeAddsCountersAndKeepsGaugeMaxima) {
  MetricsRegistry a;
  a.counter("c").inc(3);
  a.gauge("g").set(10.0);
  a.histogram("h", {1.0}).observe(0.5);
  MetricsRegistry b;
  b.counter("c").inc(4);
  b.counter("only_b").inc(1);
  b.gauge("g").set(2.0);
  b.histogram("h", {1.0}).observe(5.0);

  MetricsSnapshot merged = a.snapshot();
  merged.merge_from(b.snapshot());
  EXPECT_EQ(merged.counters.at("c"), 7u);
  EXPECT_EQ(merged.counters.at("only_b"), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 10.0);
  EXPECT_EQ(merged.histograms.at("h").counts, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(merged.histograms.at("h").count, 2u);
}

TEST(ObsMetricsTest, ReportJsonEmbedsSnapshot) {
  analysis::SessionReport report;
  report.label = "obs";
  MetricsRegistry reg;
  reg.counter("tcp.segments_retransmitted").inc(42);

  const std::string with = analysis::to_json(report, reg.snapshot());
  EXPECT_NE(with.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(with.find("\"tcp.segments_retransmitted\":42"), std::string::npos);
  // An empty snapshot leaves the plain report unchanged.
  EXPECT_EQ(analysis::to_json(report, MetricsSnapshot{}), analysis::to_json(report));
}

// ---- trace bus and sinks -------------------------------------------------

TEST(ObsTraceTest, BusWithoutSinksIsInactiveAndEmitIsNoOp) {
  TraceBus bus;
  EXPECT_FALSE(bus.active());
  bus.emit(PlayerStall{1.0, 1});
  EXPECT_EQ(bus.events_emitted(), 0u);

  RingBufferSink sink{4};
  bus.attach(&sink);
  EXPECT_TRUE(bus.active());
  bus.emit(PlayerStall{2.0, 2});
  EXPECT_EQ(bus.events_emitted(), 1u);
  bus.detach(&sink);
  EXPECT_FALSE(bus.active());
}

TEST(ObsTraceTest, RingBufferKeepsMostRecentEvents) {
  TraceBus bus;
  RingBufferSink sink{3};
  bus.attach(&sink);
  for (int i = 1; i <= 5; ++i) {
    bus.emit(PlayerStall{static_cast<double>(i), static_cast<std::uint32_t>(i)});
  }
  EXPECT_EQ(sink.total_seen(), 5u);
  ASSERT_EQ(sink.events().size(), 3u);
  const auto stalls = sink.collect<PlayerStall>();
  ASSERT_EQ(stalls.size(), 3u);
  EXPECT_EQ(stalls.front().stall_count, 3u);
  EXPECT_EQ(stalls.back().stall_count, 5u);
}

// ---- live instrumentation vs. offline analysis ---------------------------

// A small observed world: research network with loss disabled, one TCP
// connection, bulk server, pull-throttling client (the IE read policy that
// produces the rwnd-zero signature of Fig 2b).
struct ObservedWire {
  ObservedWire() : rng{3} {
    sim.set_obs(&obs);
    auto profile = net::profile_for(net::Vantage::kResearch);
    profile.loss_rate = 0.0;
    path = std::make_unique<net::Path>(sim, profile, rng);
    fabric = std::make_unique<tcp::Fabric>(sim, *path);
    recorder = std::make_unique<capture::TraceRecorder>(sim, *path);
    recorder->start();
  }

  sim::Simulator sim;
  obs::ObsContext obs;
  sim::Rng rng;
  std::unique_ptr<net::Path> path;
  std::unique_ptr<tcp::Fabric> fabric;
  std::unique_ptr<capture::TraceRecorder> recorder;
};

video::VideoMeta throttle_video() {
  video::VideoMeta v;
  v.id = "obs";
  v.duration_s = 600.0;
  v.encoding_bps = 2e6;
  v.container = video::Container::kHtml5;
  return v;
}

streaming::PullThrottleClient::Config ie_throttle() {
  streaming::PullThrottleClient::Config cfg;
  cfg.buffering_target_bytes = 4 * 1024 * 1024;
  cfg.pull_quantum_bytes = 256 * 1024;
  cfg.accumulation_ratio = 1.06;
  cfg.encoding_bps = 2e6;
  return cfg;
}

TEST(ObsIntegrationTest, TcpStatsZeroWindowEpisodesMatchTraceAnalysis) {
  ObservedWire w;
  tcp::TcpOptions client_tcp;
  client_tcp.recv_buffer_bytes = 256 * 1024;
  auto& conn = w.fabric->create_connection(client_tcp, {});
  streaming::VideoStreamServer server{w.sim, conn.server(), throttle_video(),
                                      streaming::ServerPacing::bulk()};
  streaming::PullThrottleClient client{w.sim, conn.client(), ie_throttle(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("obs"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(120.0));

  const auto trace = w.recorder->take();
  const std::size_t from_trace = analysis::count_zero_window_episodes(trace);
  const auto& stats = conn.client().stats();

  // The throttling client must actually have closed its window.
  ASSERT_GT(from_trace, 0u);
  // Endpoint-side live stats, registry counter and offline trace analysis
  // all agree on a loss-free path (every transmitted segment is captured).
  EXPECT_EQ(stats.zero_window_episodes, from_trace);
  EXPECT_EQ(w.obs.metrics().counter("tcp.zero_window_episodes").value(), from_trace);
  EXPECT_GT(stats.zero_window_total_s, 0.0);
}

TEST(ObsIntegrationTest, NoSinkProbesStillMaintainCounters) {
  ObservedWire w;  // obs attached, but no trace sink
  auto& conn = w.fabric->create_connection({}, {});
  streaming::VideoStreamServer server{w.sim, conn.server(), throttle_video(),
                                      streaming::ServerPacing::bulk()};
  streaming::GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("obs"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(20.0));

  EXPECT_GT(client.bytes_read(), 0u);
  EXPECT_GT(w.obs.metrics().counter("tcp.segments_sent").value(), 0u);
  EXPECT_GT(w.obs.metrics().counter("net.segments_delivered").value(), 0u);
  // No sink was ever attached: the bus never dispatched a single event.
  EXPECT_FALSE(w.obs.trace().active());
  EXPECT_EQ(w.obs.trace().events_emitted(), 0u);
}

// ---- acceptance: typed cwnd samples reconstruct the rwnd signal ---------

TEST(ObsIntegrationTest, CwndSamplesReconstructZeroWindowEpisodes) {
  auto network = net::profile_for(net::Vantage::kResearch);
  network.loss_rate = 0.0;  // lossless: wire order == receive order
  video::VideoMeta meta;
  meta.id = "rt";
  meta.duration_s = 600.0;
  meta.encoding_bps = 2e6;
  meta.container = video::Container::kHtml5;
  auto cfg = streaming::SessionBuilder{}
                 .service(streaming::Service::kYouTube)
                 .container(video::Container::kHtml5)
                 .application(streaming::Application::kInternetExplorer)
                 .network(network)
                 .bandwidth_jitter(0.0)
                 .auxiliary_traffic(false)
                 .video(meta)
                 .capture_duration_s(120.0)
                 .seed(17)
                 .build();

  RingBufferSink sink{std::size_t{1} << 20};
  cfg.trace_sink = &sink;
  const auto result = streaming::run_session(cfg);
  const std::size_t expected = analysis::count_zero_window_episodes(result.trace);
  ASSERT_GT(expected, 0u) << "IE pull throttling should close the window";
  EXPECT_EQ(result.metrics.counters.at("tcp.zero_window_episodes"), expected);
  EXPECT_GT(result.sim_events, 0u);
  EXPECT_GT(result.sim_max_events_pending, 0u);
  // The ring held the whole run, so no sample fell off its front.
  ASSERT_EQ(sink.total_seen(), sink.events().size());

  // Replay the cwnd samples two ways.
  //  - Client-side samples carry the client's own advertised window
  //    (`adv_wnd`) and are emitted at transmit time, exactly when the
  //    captured segment leaves: the reconstruction is exact.
  //  - Server-side samples carry the peer's window (`rwnd`) as received:
  //    identical except for a final segment still in flight at the
  //    capture cutoff, so it may lag by at most one episode.
  std::size_t from_client = 0;
  std::size_t from_server = 0;
  bool client_at_zero = false;
  bool server_at_zero = false;
  const auto count_episode_start = [](bool at_zero_now, bool& at_zero, std::size_t& episodes) {
    if (at_zero_now && !at_zero) ++episodes;
    at_zero = at_zero_now;
  };
  const auto samples = sink.collect<TcpCwndSample>();
  for (const TcpCwndSample& s : samples) {
    if (s.endpoint.rfind("client#", 0) == 0) {
      count_episode_start(s.adv_wnd == 0, client_at_zero, from_client);
    } else if (s.endpoint.rfind("server#", 0) == 0) {
      count_episode_start(s.rwnd == 0, server_at_zero, from_server);
    }
  }
  EXPECT_FALSE(samples.empty());
  EXPECT_EQ(from_client, expected);
  EXPECT_GE(from_server + 1, expected);
  EXPECT_LE(from_server, expected);
}

}  // namespace
}  // namespace vstream::obs
