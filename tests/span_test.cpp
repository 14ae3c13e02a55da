// Span layer and Chrome-trace exporter.
//
// Covers the full observability episode path: RAII span lifecycle
// (open/close nesting, marks, moves, teardown truncation via close_all),
// the Chrome trace-event golden rendering and its file sink, and the
// determinism contract that an armed run fingerprints identically to an
// unobserved one.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/context.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/session.hpp"
#include "streaming/session_builder.hpp"

namespace vstream::obs {
namespace {

using sim::SimTime;

// One observed world: a simulator with an ObsContext attached and a ring
// sink listening, so open_span() hands out live handles.
struct ObservedSim {
  ObservedSim() {
    sim.set_obs(&obs);
    obs.trace().attach(&sink);
  }

  std::vector<SpanRecord> spans() const { return sink.collect<SpanRecord>(); }

  sim::Simulator sim;
  ObsContext obs;
  RingBufferSink sink{256};
};

// ---- span lifecycle ------------------------------------------------------

TEST(SpanTest, InertHandlesAndUnobservedWorldsAreNoOps) {
  Span inert;
  EXPECT_FALSE(inert.active());
  inert.mark();
  inert.close("ignored");  // must not crash or emit anywhere

  // No ObsContext at all: the fast path returns an inert handle.
  sim::Simulator bare;
  Span from_bare = open_span(bare, SpanCategory::kFetch, "fetch");
  EXPECT_FALSE(from_bare.active());

  // Context attached but no sink listening: still inert, and the tracer
  // never even allocates a slot.
  sim::Simulator sim;
  ObsContext obs;
  sim.set_obs(&obs);
  Span unobserved = open_span(sim, SpanCategory::kPlayer, "buffering");
  EXPECT_FALSE(unobserved.active());
  EXPECT_EQ(obs.spans().spans_opened(), 0u);
  EXPECT_EQ(obs.trace().events_emitted(), 0u);
}

TEST(SpanTest, LifecycleEmitsOneRecordWithSimTimes) {
  ObservedSim w;
  Span span;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    span = open_span(w.sim, SpanCategory::kFetch, "fetch", 42);
    EXPECT_TRUE(span.active());
  });
  w.sim.schedule_at(SimTime::from_seconds(2.0), [&] { span.mark(); });
  w.sim.schedule_at(SimTime::from_seconds(3.5), [&] { span.close("complete"); });
  w.sim.run();

  EXPECT_FALSE(span.active());
  EXPECT_EQ(w.obs.spans().open_spans(), 0u);
  EXPECT_EQ(w.obs.spans().spans_opened(), 1u);
  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 1u);
  const SpanRecord& r = spans[0];
  EXPECT_DOUBLE_EQ(r.t_begin_s, 1.0);
  EXPECT_DOUBLE_EQ(r.t_mark_s, 2.0);
  EXPECT_DOUBLE_EQ(r.t_end_s, 3.5);
  EXPECT_EQ(r.span_id, 1u);
  EXPECT_EQ(r.id, 42u);
  EXPECT_EQ(r.depth, 0u);
  EXPECT_EQ(r.category, "fetch");
  EXPECT_EQ(r.name, "fetch");
  EXPECT_EQ(r.detail, "complete");
}

TEST(SpanTest, MarkFirstCallWins) {
  ObservedSim w;
  Span span;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    span = open_span(w.sim, SpanCategory::kTcp, "rto_recovery");
  });
  w.sim.schedule_at(SimTime::from_seconds(2.0), [&] { span.mark(); });
  w.sim.schedule_at(SimTime::from_seconds(4.0), [&] { span.mark(); });  // ignored
  w.sim.schedule_at(SimTime::from_seconds(5.0), [&] { span.close(); });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].t_mark_s, 2.0);
  EXPECT_TRUE(spans[0].detail.empty());
}

TEST(SpanTest, NestingRecordsDepthAtOpenAndMonotonicIds) {
  ObservedSim w;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    Span outer = open_span(w.sim, SpanCategory::kPlayer, "steady");
    Span inner = open_span(w.sim, SpanCategory::kFetch, "fetch");
    EXPECT_EQ(w.obs.spans().open_spans(), 2u);
    inner.close("complete");
    outer.close("complete");
  });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Close order: inner first.
  EXPECT_EQ(spans[0].name, "fetch");
  EXPECT_EQ(spans[0].span_id, 2u);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "steady");
  EXPECT_EQ(spans[1].span_id, 1u);
  EXPECT_EQ(spans[1].depth, 0u);
}

TEST(SpanTest, DestructorClosesImplicitly) {
  ObservedSim w;
  w.sim.schedule_at(SimTime::from_seconds(2.0), [&] {
    Span span = open_span(w.sim, SpanCategory::kLink, "blackout");
    EXPECT_TRUE(span.active());
    // falls out of scope without close(): the RAII close emits once
  });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].t_begin_s, 2.0);
  EXPECT_DOUBLE_EQ(spans[0].t_end_s, 2.0);
  EXPECT_TRUE(spans[0].detail.empty());
  EXPECT_EQ(w.obs.spans().open_spans(), 0u);
}

TEST(SpanTest, MoveTransfersOwnershipWithoutDoubleEmit) {
  ObservedSim w;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    Span a = open_span(w.sim, SpanCategory::kFetch, "fetch");
    Span b{std::move(a)};
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): moved-from is inert by contract
    EXPECT_TRUE(b.active());

    // Move-assign onto an open span closes the target first.
    Span c = open_span(w.sim, SpanCategory::kFetch, "fetch2");
    c = std::move(b);
    EXPECT_TRUE(c.active());
    c.close("complete");
  });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 2u);  // fetch2 closed by assignment, fetch closed explicitly
  EXPECT_EQ(spans[0].name, "fetch2");
  EXPECT_EQ(spans[1].name, "fetch");
  EXPECT_EQ(spans[1].detail, "complete");
}

TEST(SpanTest, CloseAllTruncatesInOpenOrderAndInvalidatesHandles) {
  ObservedSim w;
  Span first;
  Span second;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    first = open_span(w.sim, SpanCategory::kPlayer, "steady");
    second = open_span(w.sim, SpanCategory::kFetch, "fetch");
  });
  w.sim.schedule_at(SimTime::from_seconds(9.0), [&] {
    // Teardown flush: both still open, emitted in span_id order.
    EXPECT_EQ(w.obs.spans().close_all("capture_end"), 2u);
    EXPECT_EQ(w.obs.spans().open_spans(), 0u);
  });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "steady");
  EXPECT_EQ(spans[1].name, "fetch");
  EXPECT_EQ(spans[0].detail, "capture_end");
  EXPECT_EQ(spans[1].detail, "capture_end");

  // The outstanding handles were invalidated: destruction / explicit close
  // must not emit a second record.
  EXPECT_FALSE(first.active());
  EXPECT_FALSE(second.active());
  first.close("late");
  second = Span{};
  EXPECT_EQ(w.spans().size(), 2u);
}

TEST(SpanTest, EmitCompleteRetroEmitsFinishedEpisode) {
  ObservedSim w;
  w.sim.schedule_at(SimTime::from_seconds(5.0), [&] {
    emit_span(w.sim, 3.25, SpanCategory::kTcp, "zero_window", 7, "reopened");
  });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].t_begin_s, 3.25);
  EXPECT_DOUBLE_EQ(spans[0].t_end_s, 5.0);
  EXPECT_LT(spans[0].t_mark_s, 0.0);
  EXPECT_EQ(spans[0].category, "tcp");
  EXPECT_EQ(spans[0].id, 7u);
  EXPECT_EQ(spans[0].detail, "reopened");
}

TEST(SpanTest, RebindingWithOpenSpansThrows) {
  ObservedSim w;
  sim::Simulator other;
  Span span;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    span = open_span(w.sim, SpanCategory::kSim, "run");
    EXPECT_THROW(w.obs.spans().bind(other), std::logic_error);
    span.close();
    w.obs.spans().bind(other);  // fine once nothing is open
  });
  w.sim.run();
}

// ---- Chrome trace-event exporter -----------------------------------------

TEST(ChromeTraceTest, SpanRendersAsGoldenAsyncPair) {
  SpanRecord r;
  r.t_begin_s = 1.5;
  r.t_end_s = 3.25;
  r.t_mark_s = 2.0;
  r.span_id = 7;
  r.id = 42;
  r.depth = 1;
  r.category = "fetch";
  r.name = "fetch";
  r.detail = "complete";

  ChromeTraceWriter writer;
  writer.add(TraceEvent{r});
  EXPECT_EQ(writer.rows(), 3u);  // begin + mark instant + end

  // Byte-exact golden: the writer's formatting is pinned (fixed %.3f
  // microsecond timestamps) so this stays stable across platforms.
  const std::string expected =
      "{\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"fetch\"}},\n"
      "{\"ph\":\"b\",\"pid\":1,\"tid\":2,\"cat\":\"fetch\",\"id\":7,\"name\":\"fetch\","
      "\"ts\":1500000.000,\"args\":{\"detail\":\"complete\",\"domain_id\":42,\"depth\":1}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":2000000.000,\"s\":\"t\","
      "\"name\":\"fetch.mark\",\"args\":{\"span_id\":7}},\n"
      "{\"ph\":\"e\",\"pid\":1,\"tid\":2,\"cat\":\"fetch\",\"id\":7,\"name\":\"fetch\","
      "\"ts\":3250000.000}"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(writer.to_json(), expected);
}

TEST(ChromeTraceTest, PointProbesRenderAndZeroWindowIsSkipped) {
  ChromeTraceWriter writer;
  TcpCwndSample cwnd;
  cwnd.t_s = 1.0;
  cwnd.connection_id = 3;
  cwnd.cwnd = 14600;
  writer.add(TraceEvent{cwnd});
  writer.add(TraceEvent{PlayerStall{2.0, 1}});
  FetchRetry abandon;
  abandon.t_s = 3.0;
  abandon.attempt = 5;
  abandon.gave_up = true;
  writer.add(TraceEvent{abandon});
  EXPECT_EQ(writer.rows(), 3u);

  // The zero-window point probe is rendered by its retro-emitted span
  // instead; the writer must drop it rather than draw the episode twice.
  writer.add(TraceEvent{ZeroWindowEpisode{4.0, 3, "client#3", 0.5}});
  EXPECT_EQ(writer.rows(), 3u);

  const std::string json = writer.to_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("cwnd conn3"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stall\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fetch_abandoned\""), std::string::npos);
}

TEST(ChromeTraceTest, SinkWritesFileOnceAndCloseIsIdempotent) {
  const std::string path = ::testing::TempDir() + "chrome_trace_sink_test.json";
  {
    TraceBus bus;
    ChromeTraceSink sink{path};
    bus.attach(&sink);
    SpanRecord r;
    r.t_begin_s = 0.5;
    r.t_end_s = 1.0;
    r.category = "player";
    r.name = "buffering";
    r.span_id = 1;
    bus.emit(TraceEvent{r});
    EXPECT_EQ(sink.writer().rows(), 2u);
    EXPECT_TRUE(sink.close());
    EXPECT_TRUE(sink.close());  // idempotent; destructor will no-op too
  }
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string content{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  EXPECT_EQ(content.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(content.find("\"name\":\"buffering\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ChromeTraceTest, SinkRejectsAnUnwritablePath) {
  // A path that cannot be opened fails when the sink is built, before any
  // run feeds it, rather than after the run when the file is written.
  const std::string path = ::testing::TempDir() + "no_such_dir/chrome_trace.json";
  try {
    ChromeTraceSink sink{path};
    FAIL() << "an unwritable path must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()}, "ChromeTraceSink: cannot open " + path);
  }
}

// ---- end-to-end session spans --------------------------------------------

// iPad-YouTube world: the successive ranged fetches go through
// FetchManager (fetch spans) while the player runs its phase machine
// (player spans) — both instrumented subsystems fire in one session.
streaming::SessionConfig observed_session_config() {
  video::VideoMeta meta;
  meta.id = "span-e2e";
  meta.duration_s = 600.0;
  meta.encoding_bps = 2e6;
  meta.container = video::Container::kHtml5;
  return streaming::SessionBuilder{}
      .vantage(net::Vantage::kResearch)
      .service(streaming::Service::kYouTube)
      .container(video::Container::kHtml5)
      .application(streaming::Application::kIosNative)
      .video(meta)
      .capture_duration_s(60.0)
      .seed(23)
      .build();
}

TEST(SessionSpanTest, SessionEmitsEpisodeSpansAndTruncatesAtTeardown) {
  RingBufferSink sink{8192};
  auto cfg = observed_session_config();
  cfg.trace_sink = &sink;
  const auto result = streaming::run_session(cfg);

  const auto spans = sink.collect<SpanRecord>();
  ASSERT_FALSE(spans.empty());

  std::set<std::string> categories;
  std::set<std::uint64_t> ids;
  bool saw_capture_end = false;
  for (const auto& s : spans) {
    categories.insert(s.category);
    EXPECT_TRUE(ids.insert(s.span_id).second) << "duplicate span_id " << s.span_id;
    EXPECT_LE(s.t_begin_s, s.t_end_s);
    if (s.detail == "capture_end") saw_capture_end = true;
  }
  // The fetch lifecycle and the player phase machine are both instrumented.
  EXPECT_TRUE(categories.count("fetch")) << "no fetch span";
  EXPECT_TRUE(categories.count("player")) << "no player span";

  // The player is mid-phase when the capture window closes, so teardown
  // truncation must have flushed at least one span and recorded the count.
  const double truncated = result.metrics.gauges.at("obs.spans_truncated");
  EXPECT_GE(truncated, 1.0);
  EXPECT_TRUE(saw_capture_end);
}

// ---- determinism: armed vs unobserved ------------------------------------

TEST(SpanDeterminismTest, ArmedRunFingerprintsIdenticallyToUnobserved) {
  // Spans read sim-time and emit; they never schedule or touch RNG. An
  // armed run must therefore be bit-identical to an unobserved twin.
  const auto cfg = observed_session_config();
  const auto unobserved = streaming::fingerprint_session(cfg);
  RingBufferSink sink{4096};
  const auto armed = streaming::fingerprint_session(cfg, &sink);

  EXPECT_GT(sink.total_seen(), 0u) << "armed run never fired a probe";
  EXPECT_EQ(unobserved, armed);
  EXPECT_GT(armed.sim_events, 0u);
  EXPECT_GT(armed.bytes_downloaded, 0u);
}

}  // namespace
}  // namespace vstream::obs
