// Oracle tests for the one session-report path: `build_report` (a
// StreamingReportBuilder fed from a view) and the in-session builder must
// equal `reference_report`, a test-local composition of the per-analysis
// batch functions, field for field — on every catalog and fault scenario,
// on randomized synthetic traces exercising the awkward cases (timestamp
// ties, zero-window probe episodes, multiple connections, retransmissions)
// and on late-handshake traces whose first-RTT windows open before the
// handshake RTT estimate is final.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ack_clock.hpp"
#include "analysis/onoff.hpp"
#include "analysis/periodicity.hpp"
#include "analysis/report.hpp"
#include "analysis/report_json.hpp"
#include "analysis/streaming_report.hpp"
#include "capture/trace.hpp"
#include "sim/rng.hpp"
#include "stats/descriptive.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/session.hpp"

namespace vstream {
namespace {

/// The multi-pass report: the per-analysis batch functions composed field
/// by field, each with its own pass over the view.
/// Independent of the builder wherever a batch function has code of its own:
/// first-RTT windows, retransmission fraction and connection count.
analysis::SessionReport reference_report(capture::TraceView trace,
                                         const analysis::ReportOptions& options = {}) {
  analysis::SessionReport report;
  report.label = trace.label();
  report.packets = trace.count();
  report.connections = trace.connection_count();
  report.retransmission_pct = trace.retransmission_fraction() * 100.0;
  report.zero_window_episodes = analysis::count_zero_window_episodes(trace);
  report.duration_s = trace.duration_s();

  const auto onoff = analysis::analyze_on_off(trace, options.onoff);
  const auto decision = analysis::classify_strategy(onoff, trace);
  report.strategy = decision.strategy;
  report.rationale = decision.rationale;
  report.buffering_end_s = onoff.buffering_end_s;
  report.buffering_mb = static_cast<double>(onoff.buffering_bytes) / 1048576.0;
  report.total_mb = static_cast<double>(onoff.total_bytes) / 1048576.0;
  report.has_steady_state = onoff.has_steady_state();
  report.steady_rate_mbps = onoff.steady_rate_bps / 1e6;
  report.median_block_kb = onoff.median_block_bytes() / 1024.0;
  report.median_off_s = onoff.median_off_s();

  const double rate =
      options.encoding_bps.has_value() ? *options.encoding_bps : trace.encoding_bps();
  if (rate > 0.0) {
    report.buffered_playback_s = onoff.buffered_playback_s(rate);
    if (onoff.has_steady_state()) report.accumulation_ratio = onoff.accumulation_ratio(rate);
  }

  if (const auto rtt = analysis::estimate_handshake_rtt(trace)) {
    report.rtt_ms = *rtt * 1000.0;
    if (onoff.has_steady_state()) {
      analysis::AckClockOptions ack;
      ack.rtt_s = *rtt;
      const auto samples = analysis::first_rtt_bytes(trace, onoff, ack);
      if (!samples.empty()) report.median_first_rtt_kb = stats::median(samples) / 1024.0;
    }
  }

  if (onoff.has_steady_state()) {
    const auto periodicity = analysis::estimate_cycle_period(trace);
    if (periodicity.periodic) report.cycle_period_s = periodicity.period_s;
  }
  report.resilience = options.resilience;
  return report;
}

/// Feed a whole trace to a fresh builder, setting the metadata
/// `build_report` reads off the view.
analysis::SessionReport stream_over(const capture::PacketTrace& trace,
                                    const analysis::ReportOptions& options = {}) {
  analysis::StreamingReportBuilder builder{options};
  for (const auto& p : trace.packets) builder.add(p);
  builder.set_label(trace.label);
  builder.set_duration_s(trace.duration_s);
  builder.set_encoding_bps(trace.encoding_bps);
  return builder.finish();
}

/// `build_report` equals the multi-pass reference, in fields and in JSON.
void expect_matches_reference(capture::TraceView trace, const analysis::ReportOptions& options,
                              const std::string& what) {
  const auto report = analysis::build_report(trace, options);
  const auto reference = reference_report(trace, options);
  EXPECT_EQ(report, reference) << what;
  EXPECT_EQ(analysis::to_json(report), analysis::to_json(reference)) << what;
}

TEST(StreamingReportTest, CatalogScenariosBatchIdentical) {
  // Every supported Table-1 combination: the in-session streamed report and
  // the report built afterwards over the owned video trace both equal the
  // multi-pass reference.
  for (const auto& scenario : streaming::canonical_scenarios(20.0)) {
    auto cfg = scenario.config;
    cfg.streaming_report = true;
    const auto result = streaming::run_session(cfg);
    ASSERT_TRUE(result.report.has_value()) << scenario.name;
    EXPECT_EQ(*result.report, reference_report(result.video_trace())) << scenario.name;
    expect_matches_reference(result.video_trace(), {}, scenario.name);
  }
}

TEST(StreamingReportTest, FaultScenariosBatchIdenticalWithMirroredResilience) {
  // Fault runs carry non-zero ResilienceStats that only the session knows
  // (retries, rebuffers, fault drops are not derivable from packets). The
  // reports still agree once the view-built side is handed the same stats
  // via ReportOptions::resilience — exactly how SessionResult documents
  // they should be mirrored.
  for (const auto& scenario : streaming::fault_scenarios(15.0)) {
    auto cfg = scenario.config;
    cfg.streaming_report = true;
    const auto result = streaming::run_session(cfg);
    ASSERT_TRUE(result.report.has_value()) << scenario.name;
    analysis::ReportOptions options;
    options.resilience = result.resilience;
    EXPECT_EQ(*result.report, reference_report(result.video_trace(), options)) << scenario.name;
    expect_matches_reference(result.video_trace(), options, scenario.name);
  }
}

TEST(StreamingReportTest, StoreTraceOffStillDeliversTheReport) {
  auto scenarios = streaming::canonical_scenarios(20.0);
  ASSERT_FALSE(scenarios.empty());
  auto cfg = scenarios.front().config;

  auto batch_cfg = cfg;
  const auto batch_run = streaming::run_session(batch_cfg);
  const auto batch = analysis::build_report(batch_run.video_trace());

  auto lean_cfg = cfg;
  lean_cfg.store_trace = false;
  lean_cfg.streaming_report = true;
  const auto lean_run = streaming::run_session(lean_cfg);

  EXPECT_TRUE(lean_run.trace.packets.empty());
  ASSERT_TRUE(lean_run.report.has_value());
  // Same seed, same world: the streamed report equals the twin's batch one.
  EXPECT_EQ(*lean_run.report, batch);
  EXPECT_EQ(lean_run.connections, batch.connections);
  EXPECT_EQ(lean_run.bytes_downloaded, batch_run.bytes_downloaded);
}

TEST(StreamingReportTest, EveryCaptureModeCountsTheSameVideoConnections) {
  // A session counts its video-CDN connections itself, so a sweep session
  // that stores no trace and builds no report still reports them, and the
  // count equals what the stored trace and the streamed report see.
  // Auxiliary-host connections stay out of every count.
  for (const auto& scenario : streaming::canonical_scenarios(20.0)) {
    const auto stored = streaming::run_session(scenario.config);

    auto reported_cfg = scenario.config;
    reported_cfg.store_trace = false;
    reported_cfg.streaming_report = true;
    const auto reported = streaming::run_session(reported_cfg);
    ASSERT_TRUE(reported.report.has_value()) << scenario.name;

    auto bare_cfg = scenario.config;
    bare_cfg.store_trace = false;
    const auto bare = streaming::run_session(bare_cfg);

    EXPECT_GT(stored.connections, 0U) << scenario.name;
    EXPECT_EQ(stored.connections, stored.video_trace().connection_count()) << scenario.name;
    EXPECT_EQ(reported.connections, stored.connections) << scenario.name;
    EXPECT_EQ(reported.report->connections, stored.connections) << scenario.name;
    EXPECT_EQ(bare.connections, stored.connections) << scenario.name;
  }
}

TEST(StreamingReportTest, SessionStreamingReportMatchesPostHocStreaming) {
  // The sink-fed in-session builder and a post-hoc builder over the stored
  // video trace see the same records in the same order.
  auto cfg = streaming::canonical_scenarios(20.0).front().config;
  cfg.streaming_report = true;
  const auto result = streaming::run_session(cfg);
  ASSERT_TRUE(result.report.has_value());
  EXPECT_EQ(*result.report, stream_over(result.trace));
}

// ---- randomized synthetic traces ----------------------------------------

capture::PacketRecord rec(double t, net::Direction dir, std::uint64_t conn,
                          std::uint32_t payload, net::TcpFlag flags, bool retx,
                          std::uint64_t window) {
  capture::PacketRecord r;
  r.t_s = t;
  r.direction = dir;
  r.host = 0;
  r.connection_id = conn;
  r.payload_bytes = payload;
  r.flags = flags;
  r.is_retransmission = retx;
  r.window_bytes = window;
  return r;
}

/// Randomized but deterministic-per-seed session trace with the edge cases
/// the accumulators must get right: multiple connections with staggered
/// handshakes, timestamp ties, retransmissions, zero-window probe episodes,
/// and ON/OFF gaps straddling the 0.15 s threshold.
capture::PacketTrace random_trace(std::uint64_t seed) {
  sim::Rng rng{seed};
  capture::PacketTrace trace;
  trace.label = "random-" + std::to_string(seed);
  trace.encoding_bps = rng.uniform(0.8e6, 2.5e6);

  const auto conns = static_cast<std::uint64_t>(rng.uniform_int(1, 3));
  double t = 0.0;
  for (std::uint64_t c = 0; c < conns; ++c) {  // staggered handshakes first
    const double rtt = rng.uniform(0.01, 0.08);
    trace.packets.push_back(rec(t, net::Direction::kUp, c, 0, net::TcpFlag::kSyn, false, 65536));
    trace.packets.push_back(rec(t + rtt / 2, net::Direction::kDown, c, 0,
                                net::TcpFlag::kSyn | net::TcpFlag::kAck, false, 65536));
    trace.packets.push_back(
        rec(t + rtt, net::Direction::kUp, c, 0, net::TcpFlag::kAck, false, 65536));
    t += rtt + rng.uniform(0.005, 0.02);
  }

  const double horizon = rng.uniform(20.0, 40.0);
  std::uint64_t seq = 1;
  while (t < horizon) {
    // OFF gap: sometimes below the 0.15 s threshold (same ON period),
    // sometimes well above (new cycle).
    t += rng.bernoulli(0.3) ? rng.uniform(0.01, 0.12) : rng.uniform(0.2, 1.2);
    const auto conn = static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(conns) - 1));
    const int block = static_cast<int>(rng.uniform_int(3, 50));
    for (int i = 0; i < block; ++i) {
      const bool retx = rng.bernoulli(0.06);
      trace.packets.push_back(rec(t, net::Direction::kDown, conn, 1448,
                                  net::TcpFlag::kAck | net::TcpFlag::kPsh, retx, 262144));
      seq += retx ? 0 : 1448;
      if (rng.bernoulli(0.3)) {
        // ACK at the exact same timestamp: a tie the binning and the ON/OFF
        // state machine must order identically in both pipelines.
        trace.packets.push_back(
            rec(t, net::Direction::kUp, conn, 0, net::TcpFlag::kAck, false, 262144));
      }
      t += rng.uniform(0.0005, 0.004);
    }
    if (rng.bernoulli(0.25)) {
      // Zero-window episode: advertisement closes, server probes with tiny
      // (sub-64-byte) payloads, window reopens.
      trace.packets.push_back(
          rec(t, net::Direction::kUp, conn, 0, net::TcpFlag::kAck, false, 0));
      const int probes = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < probes; ++i) {
        t += rng.uniform(0.05, 0.3);
        trace.packets.push_back(rec(t, net::Direction::kDown, conn, 1,
                                    net::TcpFlag::kAck, false, 262144));
        trace.packets.push_back(
            rec(t, net::Direction::kUp, conn, 0, net::TcpFlag::kAck, false, 0));
      }
      t += rng.uniform(0.02, 0.1);
      trace.packets.push_back(
          rec(t, net::Direction::kUp, conn, 0, net::TcpFlag::kAck, false, 262144));
    }
  }
  trace.duration_s = t;
  return trace;
}

TEST(StreamingReportTest, RandomizedTracesBatchIdentical) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    expect_matches_reference(random_trace(seed), {}, "seed " + std::to_string(seed));
  }
}

TEST(StreamingReportTest, ExplicitOptionsFlowThrough) {
  const auto trace = random_trace(99);
  analysis::ReportOptions options;
  options.encoding_bps = 2.0e6;
  options.onoff.gap_threshold_s = 0.25;
  expect_matches_reference(trace, options, "explicit options");
}

TEST(StreamingReportTest, EmptyStreamMatchesEmptyTrace) {
  const capture::PacketTrace empty;
  EXPECT_EQ(stream_over(empty), reference_report(empty));
  EXPECT_EQ(analysis::build_report(empty), reference_report(empty));
}

TEST(StreamingReportTest, ConnectionCountsEqualAPlainSetCount) {
  // The view's and the builder's counts look the set up only when a
  // record's id differs from the previous record's; a std::set over every
  // record is the reference.
  const auto plain = [](const capture::PacketTrace& trace) {
    std::set<std::uint64_t> ids;
    for (const auto& p : trace.packets) ids.insert(p.connection_id);
    return ids.size();
  };
  const auto trace_of = [](const std::vector<std::uint64_t>& ids) {
    capture::PacketTrace trace;
    double t = 0.0;
    for (const std::uint64_t id : ids) {
      t += 0.01;
      trace.packets.push_back(
          rec(t, net::Direction::kDown, id, 1448, net::TcpFlag::kAck, false, 65536));
    }
    return trace;
  };
  std::vector<std::uint64_t> long_runs(1000, 3);
  long_runs.insert(long_runs.end(), 1000, 9);
  long_runs.insert(long_runs.end(), 1000, 3);
  std::vector<std::uint64_t> random_runs;
  sim::Rng rng{77};
  while (random_runs.size() < 5000) {
    random_runs.insert(random_runs.end(), static_cast<std::size_t>(rng.uniform_int(1, 40)),
                       static_cast<std::uint64_t>(rng.uniform_int(0, 30)));
  }
  const std::vector<std::pair<std::string, std::vector<std::uint64_t>>> cases = {
      {"empty", {}},
      {"alternating", {1, 2, 1, 2, 1, 2}},
      {"first id 0", {0, 0, 5, 0}},
      {"only id 0", {0, 0, 0}},
      {"long runs", long_runs},
      {"id comes back", {4, 4, 7, 7, 9, 4, 4, 7}},
      {"random runs", random_runs},
  };
  for (const auto& [what, ids] : cases) {
    const auto trace = trace_of(ids);
    const std::size_t want = plain(trace);
    EXPECT_EQ(capture::TraceView{trace}.connection_count(), want) << what;
    EXPECT_EQ(stream_over(trace).connections, want) << what;
  }
  // A filtered view counts the ids it passes: dropping the upstream
  // records of id 0 between three records of id 5 leaves one run.
  auto trace = trace_of({5, 0, 5, 0, 5});
  for (auto& p : trace.packets) {
    if (p.connection_id == 0) p.direction = net::Direction::kUp;
  }
  EXPECT_EQ(capture::TraceView{trace}.connection_count(), 2U);
  EXPECT_EQ(capture::TraceView{trace}.direction(net::Direction::kDown).connection_count(), 1U);
}

// ---- late handshakes -----------------------------------------------------
//
// First-RTT windows open at steady-state ON starts, but their length is the
// final handshake RTT estimate. When the estimate is not final by the first
// qualifying ON start, the windows must wait for it.

/// Insert `r` after every record at or before its time, keeping the trace
/// time-ordered.
void insert_in_time_order(capture::PacketTrace& trace, const capture::PacketRecord& r) {
  const auto at = std::upper_bound(
      trace.packets.begin(), trace.packets.end(), r.t_s,
      [](double t, const capture::PacketRecord& p) { return t < p.t_s; });
  trace.packets.insert(at, r);
}

void insert_syn(capture::PacketTrace& trace, std::uint64_t conn, double t) {
  insert_in_time_order(trace, rec(t, net::Direction::kUp, conn, 0, net::TcpFlag::kSyn, false,
                                  65536));
}

void insert_syn_ack(capture::PacketTrace& trace, std::uint64_t conn, double t) {
  insert_in_time_order(trace, rec(t, net::Direction::kDown, conn, 0,
                                  net::TcpFlag::kSyn | net::TcpFlag::kAck, false, 65536));
}

/// ON/OFF video data on `conn` from 0.05 s to `horizon`, with no handshake:
/// blocks of full-size segments with OFF gaps on both sides of the 0.15 s
/// threshold.
capture::PacketTrace data_only_trace(std::uint64_t seed, std::uint64_t conn, double horizon) {
  sim::Rng rng{seed};
  capture::PacketTrace trace;
  trace.label = "late-" + std::to_string(seed);
  trace.encoding_bps = 1.5e6;
  double t = 0.05;
  while (t < horizon) {
    const int block = static_cast<int>(rng.uniform_int(5, 40));
    for (int i = 0; i < block; ++i) {
      trace.packets.push_back(rec(t, net::Direction::kDown, conn, 1448,
                                  net::TcpFlag::kAck | net::TcpFlag::kPsh, false, 262144));
      trace.packets.push_back(
          rec(t, net::Direction::kUp, conn, 0, net::TcpFlag::kAck, false, 262144));
      t += rng.uniform(0.0005, 0.004);
    }
    t += rng.bernoulli(0.2) ? rng.uniform(0.01, 0.12) : rng.uniform(0.2, 1.2);
  }
  trace.duration_s = t;
  return trace;
}

/// Start of the first ON period that opens a first-RTT window.
double first_window_start(const capture::PacketTrace& trace) {
  const auto onoff = analysis::analyze_on_off(trace);
  for (std::size_t i = 1; i < onoff.on_periods.size(); ++i) {
    if (onoff.off_durations_s[i - 1] >= analysis::AckClockOptions{}.min_preceding_off_s) {
      return onoff.on_periods[i].start_s;
    }
  }
  return trace.duration_s;
}

/// The late trace must really open windows early and still yield samples.
void expect_late_and_matching(const capture::PacketTrace& trace, double final_at,
                              const std::string& what) {
  EXPECT_LT(first_window_start(trace), final_at) << what;
  const auto report = analysis::build_report(trace);
  EXPECT_TRUE(report.median_first_rtt_kb.has_value()) << what;
  expect_matches_reference(trace, {}, what);
}

TEST(StreamingReportTest, MidFlowCaptureWithLateSecondHandshake) {
  // The video connection was captured mid-flow, so its SYN is missing; a
  // second connection's handshake lands after the first qualifying OFF.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto trace = data_only_trace(seed, 0, 30.0);
    sim::Rng rng{seed + 1000};
    const double syn_at = rng.uniform(5.0, 10.0);
    const double syn_ack_at = syn_at + rng.uniform(0.01, 0.3);
    insert_syn(trace, 1, syn_at);
    insert_syn_ack(trace, 1, syn_ack_at);
    expect_late_and_matching(trace, syn_ack_at, "seed " + std::to_string(seed));
  }
}

TEST(StreamingReportTest, FirstSynAnsweredAfterSteadyStateStarts) {
  // The first SYN is answered only seconds into steady state, so the final
  // RTT spans several cycles and the windows overlap. With `early_second`,
  // another connection's handshake completes first, so an estimate exists
  // but is not yet final when the windows open.
  for (const bool early_second : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      auto trace = data_only_trace(seed, 0, 30.0);
      sim::Rng rng{seed + 2000};
      const double syn_ack_at = rng.uniform(4.0, 8.0);
      insert_syn(trace, 0, 0.0);
      insert_syn_ack(trace, 0, syn_ack_at);
      if (early_second) {
        insert_syn(trace, 1, 0.01);
        insert_syn_ack(trace, 1, 0.03);
      }
      expect_late_and_matching(trace, syn_ack_at,
                               "seed " + std::to_string(seed) +
                                   (early_second ? " (early second handshake)" : ""));
    }
  }
}

TEST(StreamingReportTest, HeadSynNeverAnsweredUsesLastEstimate) {
  // The first SYN is never answered, so the estimate is never final: the
  // windows wait to the end of the trace and take the last estimate, the
  // second connection's RTT.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto trace = data_only_trace(seed, 1, 30.0);
    insert_syn(trace, 0, 0.0);
    insert_syn(trace, 1, 0.01);
    insert_syn_ack(trace, 1, 0.04);
    expect_late_and_matching(trace, trace.duration_s, "seed " + std::to_string(seed));
  }
}

TEST(StreamingReportTest, SynAckTiedWithItsSynCarriesNoRtt) {
  // A SYN-ACK stamped with its SYN's own time gives a zero RTT, which is no
  // estimate: alone, the report has no RTT fields; with a second, real
  // handshake, the RTT is that one's. Either way the builder equals the
  // reference and nothing throws.
  for (const bool second : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const std::string what = "seed " + std::to_string(seed) + (second ? " (second)" : "");
      auto trace = data_only_trace(seed, 0, 20.0);
      insert_syn(trace, 0, 0.0);
      insert_syn_ack(trace, 0, 0.0);
      if (second) {
        insert_syn(trace, 1, 0.01);
        insert_syn_ack(trace, 1, 0.03);
      }
      const auto report = analysis::build_report(trace);
      EXPECT_EQ(report.rtt_ms.has_value(), second) << what;
      EXPECT_EQ(report.median_first_rtt_kb.has_value(), second) << what;
      EXPECT_EQ(stream_over(trace), reference_report(trace)) << what;
      expect_matches_reference(trace, {}, what);
    }
  }
}

TEST(StreamingReportTest, ProbeTiedWithOnStartCountsInItsWindow) {
  // A zero-window probe at the exact time of the record that opens an ON
  // period, but before it: [start, start + rtt) includes the probe. Checked
  // with the handshake first (windows bounded at once) and last (windows
  // held for the estimate).
  for (const bool late : {false, true}) {
    auto trace = data_only_trace(7, 0, 20.0);
    const auto onoff = analysis::analyze_on_off(trace);
    for (std::size_t i = 1; i < onoff.on_periods.size(); ++i) {
      const double start = onoff.on_periods[i].start_s;
      const auto at = std::find_if(trace.packets.begin(), trace.packets.end(),
                                   [start](const capture::PacketRecord& p) {
                                     return p.t_s >= start;
                                   });
      trace.packets.insert(at, rec(start, net::Direction::kDown, 0, 1, net::TcpFlag::kAck,
                                   false, 262144));
    }
    insert_syn(trace, 0, late ? 12.0 : 0.0);
    insert_syn_ack(trace, 0, late ? 12.05 : 0.02);
    expect_matches_reference(trace, {}, late ? "late handshake" : "early handshake");
  }
}

}  // namespace
}  // namespace vstream
