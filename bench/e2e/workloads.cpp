#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "analysis/parallel_classify.hpp"
#include "analysis/report.hpp"
#include "capture/pcap_reader.hpp"
#include "capture/synthetic.hpp"
#include "check/digest.hpp"
#include "model/aggregate.hpp"
#include "net/link.hpp"
#include "net/profile.hpp"
#include "obs/trace.hpp"
#include "runner/parallel_sweep.hpp"
#include "runner/session_sweep.hpp"
#include "runner/sweep_profiler.hpp"
#include "sim/arena.hpp"
#include "sim/simulator.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/session_builder.hpp"
#include "streaming/topology_builder.hpp"

namespace vstream::e2e {

void Outcome::check(bool ok, const std::string& error) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(error);
}

namespace {

using runner::ParallelSweep;

constexpr auto kBuildPhase = static_cast<std::size_t>(runner::SweepPhase::kBuild);
constexpr auto kRunPhase = static_cast<std::size_t>(runner::SweepPhase::kRun);
constexpr auto kMergePhase = static_cast<std::size_t>(runner::SweepPhase::kMerge);

/// Input size factor of a smoke run (the reference size is 1).
constexpr double kSmokeScale = 0.02;
/// Set-ups per run; setup_s is the median of the faster half.
constexpr std::size_t kSetupReps = 9;

double scale(const Options& o) { return o.smoke ? kSmokeScale : 1.0; }

std::size_t scaled(double reference, double factor, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(std::llround(reference * factor)));
}

/// The faster half of `values` (rounded up), fastest first.
///
/// Every timing metric is taken over the faster half of a run's rounds or
/// set-ups. Every round of a workload does identical, deterministic work, yet
/// on a shared machine other tenants slow whole stretches of seconds by a
/// quarter or more (a plain DRAM pointer chase shows the same swings); the
/// faster half is the program's own speed, and the median of it still sheds
/// a lucky outlier.
std::vector<double> faster_half(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  values.resize((values.size() + 1) / 2);
  return values;
}

/// Set the workload up kSetupReps times (once in a smoke run) and return the
/// median of the faster half of the wall times. Every repetition rebuilds
/// the inputs from scratch; the last one's stay in use.
double timed_setup(const Options& o, const std::function<void()>& setup) {
  std::vector<double> times;
  for (std::size_t r = 0; r < (o.smoke ? 1 : kSetupReps); ++r) {
    const double t0 = now_s();
    setup();
    times.push_back(now_s() - t0);
  }
  return median(faster_half(times));
}

/// Wall time of each timed round, split by whether spans were recorded.
struct Rounds {
  std::vector<double> untraced;
  std::vector<double> traced;

  /// Traced over untraced round time (faster-half medians), minus one.
  [[nodiscard]] double trace_overhead() const {
    const double base = median(faster_half(untraced));
    return base > 0.0 && !traced.empty() ? median(faster_half(traced)) / base - 1.0 : 0.0;
  }
};

/// Repeat `round(index, traced)` until `seconds` have passed and at least
/// `min_rounds` ran. A traced run alternates untraced and traced rounds
/// (untraced first) so the two medians see the same machine state, and
/// runs at least two of each. Each round is one root span on worker 0.
Rounds timed_rounds(const Options& o, SpanLog& log, std::size_t min_rounds,
                    const std::function<void(std::size_t, bool)>& round) {
  Rounds rounds;
  if (o.traced) min_rounds = std::max<std::size_t>(min_rounds, 4);
  const double start = now_s();
  for (std::size_t i = 0; i < min_rounds || now_s() - start < o.seconds; ++i) {
    const bool traced = o.traced && i % 2 == 1;
    log.set_enabled(traced);
    const double t0 = now_s();
    {
      const SpanLog::Scope span{log, "round", Layer::kBench, i, 0};
      round(i, traced);
    }
    (traced ? rounds.traced : rounds.untraced).push_back(now_s() - t0);
  }
  log.set_enabled(false);
  return rounds;
}

/// One untraced timed round: its wall time, the sessions and video MB it
/// completed, and the latency of each call in it.
struct RoundStat {
  double wall_s{0.0};
  double sessions{0.0};
  double mb{0.0};
  std::vector<double> call_s;
};

/// The end-to-end metrics a workload measures itself (main() adds ok_share),
/// over the faster half of the untraced rounds (see faster_half): the median
/// rate of those rounds, and latency percentiles over all of their calls.
void add_end_to_end(Outcome& out, double setup_s, const std::vector<RoundStat>& rounds) {
  std::vector<double> wall_s;
  for (const RoundStat& r : rounds) wall_s.push_back(r.wall_s);
  const double slowest_used = faster_half(wall_s).back();
  std::vector<double> sessions_per_s;
  std::vector<double> mb_per_s;
  std::vector<double> call_s;
  for (const RoundStat& r : rounds) {
    if (r.wall_s > slowest_used) continue;
    sessions_per_s.push_back(r.sessions / r.wall_s);
    mb_per_s.push_back(r.mb / r.wall_s);
    call_s.insert(call_s.end(), r.call_s.begin(), r.call_s.end());
  }
  const double p99 = quantile(call_s, 0.99);
  out.end_to_end = {
      {"setup_s", setup_s},
      {"sessions_per_s", median(sessions_per_s)},
      {"mb_per_s", median(mb_per_s)},
      {"session_p50_ms", quantile(call_s, 0.50) * 1e3},
      {"session_p99_ms", p99 * 1e3},
      {"peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0},
  };
  const auto beyond =
      std::count_if(call_s.begin(), call_s.end(), [p99](double v) { return v > p99; });
  out.info.emplace_back("rounds", static_cast<double>(rounds.size()));
  out.info.emplace_back("rounds_used", static_cast<double>(sessions_per_s.size()));
  out.info.emplace_back("calls", static_cast<double>(call_s.size()));
  out.info.emplace_back("calls_beyond_p99", static_cast<double>(beyond));
}

double tail_ratio(const std::vector<double>& call_s) {
  const double p50 = quantile(call_s, 0.5);
  return p50 > 0.0 ? quantile(call_s, 0.95) / p50 : 0.0;
}

// ---------------------------------------------------------------------------
// Calibrations of the sim and net layers, measured through their public API
// in isolation. The ledger multiplies them by a workload's event and link-hop
// counts to estimate how much of a world's time is event dispatch and link
// work — the Amdahl bound on parallelising inside one world. The two overlap
// (a hop's events are sim events too), so their sum bounds the pair from
// above.

/// Nanoseconds per event of a Simulator that keeps `depth` events pending:
/// each event reschedules itself at a pseudo-random delay until `events`
/// have run. The callbacks do almost nothing, so this is queue cost.
double calibrate_sim_ns(std::size_t depth, std::uint64_t events) {
  struct Load {
    sim::Simulator* sim;
    std::uint64_t left;
    std::uint64_t lcg;
  };
  struct Tick {
    Load* load;
    void operator()() const {
      if (load->left == 0) return;
      --load->left;
      load->lcg = load->lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto delay_ns = static_cast<std::int64_t>(1 + (load->lcg >> 44U));  // < ~1 ms
      load->sim->schedule_after(sim::Duration::nanos(delay_ns), Tick{load});
    }
  };
  sim::Simulator sim;
  Load load{&sim, events, 0x5DEECE66DULL};
  for (std::size_t d = 0; d < std::max<std::size_t>(depth, 1); ++d) Tick{&load}();
  load.left = events;
  const double t0 = now_s();
  sim.run();
  const double elapsed = now_s() - t0;
  return sim.events_processed() > 0 ? elapsed * 1e9 / static_cast<double>(sim.events_processed())
                                    : 0.0;
}

/// Nanoseconds per hop through a net::Link (enqueue, serialise, deliver to
/// the receiver), the dispatch of the link's own two events included.
/// Segments go out in batches of 64, so the queue stays short.
double calibrate_net_ns(std::uint64_t hops) {
  constexpr std::size_t kBatch = 64;
  sim::Simulator sim;
  net::Link link{sim, net::Link::Config{1e9, sim::Duration::millis(5), 4U << 20U}, nullptr,
                 sim::Rng{1}};
  std::uint64_t delivered = 0;
  link.set_receiver([&delivered](const net::TcpSegment&) { ++delivered; });
  net::TcpSegment segment;
  segment.connection_id = 1;
  segment.payload_bytes = 1460;
  const double t0 = now_s();
  for (std::uint64_t sent = 0; sent < hops;) {
    for (std::size_t k = 0; k < kBatch && sent < hops; ++k, ++sent) {
      segment.seq = sent * segment.payload_bytes;
      link.send(segment);
    }
    sim.run();
  }
  const double elapsed = now_s() - t0;
  return delivered > 0 ? elapsed * 1e9 / static_cast<double>(delivered) : 0.0;
}

struct Calibration {
  double sim_ns_per_event{0.0};
  double net_ns_per_hop{0.0};
};

/// Each calibration is repeated and summarised like the timed rounds: the
/// median of the faster half.
Calibration calibrate(std::size_t depth, SpanLog& log) {
  constexpr std::size_t kReps = 5;
  log.set_enabled(true);
  std::vector<double> sim_ns;
  std::vector<double> net_ns;
  {
    const SpanLog::Scope span{log, "calibrate_sim", Layer::kSim, 0, 0};
    const std::size_t d = std::clamp<std::size_t>(depth, 64, 1U << 16U);
    for (std::size_t r = 0; r < kReps; ++r) {
      sim_ns.push_back(calibrate_sim_ns(d, std::max<std::uint64_t>(400'000, 20 * d)));
    }
  }
  {
    const SpanLog::Scope span{log, "calibrate_net", Layer::kNet, 0, 0};
    for (std::size_t r = 0; r < kReps; ++r) net_ns.push_back(calibrate_net_ns(200'000));
  }
  log.set_enabled(false);
  return Calibration{median(faster_half(sim_ns)), median(faster_half(net_ns))};
}

/// Layer estimates and the ledger's otherData, shared by every workload.
/// `call_s` is the time of the streaming calls those events and hops ran in.
void add_calibrated(Outcome& out, SpanLog& log, const char* workload, std::size_t workers,
                    std::size_t depth, double events, double hops, double call_s,
                    const Rounds& rounds) {
  const Calibration c = calibrate(depth, log);
  const double sim_share = call_s > 0.0 ? events * c.sim_ns_per_event * 1e-9 / call_s : 0.0;
  const double net_share = call_s > 0.0 ? hops * c.net_ns_per_hop * 1e-9 / call_s : 0.0;
  out.per_layer.emplace_back("bench.trace_overhead_share", rounds.trace_overhead());
  out.per_layer.emplace_back("sim.calib_ns_per_event", c.sim_ns_per_event);
  out.per_layer.emplace_back("sim.dispatch_share", sim_share);
  out.per_layer.emplace_back("net.calib_ns_per_hop", c.net_ns_per_hop);
  out.per_layer.emplace_back("net.link_share", net_share);
  char buf[640];
  std::snprintf(buf, sizeof buf,
                "{\"workload\":\"%s\",\"workers\":%zu,\"traced_rounds\":%zu,"
                "\"trace_overhead_share\":%.17g,\"streaming_call_s\":%.17g,"
                "\"sim_events\":%.17g,\"net_hops\":%.17g,\"sim_depth\":%zu,"
                "\"sim_ns_per_event\":%.17g,\"net_ns_per_hop\":%.17g,"
                "\"sim_dispatch_share\":%.17g,\"net_link_share\":%.17g}",
                workload, workers, rounds.traced.size(), rounds.trace_overhead(), call_s,
                events, hops, depth, c.sim_ns_per_event, c.net_ns_per_hop, sim_share, net_share);
  out.trace_other_data = buf;
}

// ---------------------------------------------------------------------------
// table1_catalog: every Table-1 combination plus the fault catalog, 180 s
// captures, seed replicas, run and analysed on a 2-worker pool.

struct SessionCall {
  std::string error;  ///< empty when the call returned
  std::uint64_t digest{0};
  std::uint64_t words{0};
  analysis::SessionReport report;
  double start_s{0.0};
  double run_s{0.0};
  double call_s{0.0};
  std::uint64_t bytes{0};
  std::uint64_t events{0};
  std::size_t pending{0};
  std::size_t connections{0};
  std::size_t packets{0};
  double trace_bytes{0.0};
  std::uint64_t stalls{0};
  std::uint64_t fetch_retries{0};
  std::uint64_t segments_delivered{0};
  std::uint64_t drops_queue{0};
  std::uint64_t drops_loss{0};
  std::uint64_t drops_fault{0};
  double queue_high_water{0.0};
  std::uint64_t segments_sent{0};
  std::uint64_t segments_retx{0};
  std::uint64_t tcp_timeouts{0};
};

std::uint64_t counter(const obs::MetricsSnapshot& m, const char* name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

double gauge(const obs::MetricsSnapshot& m, const char* name) {
  const auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0.0 : it->second;
}

Outcome run_table1(const Options& o, SpanLog& log) {
  Outcome out;
  // 28 replicas of the 18 entries: a round of 504 sessions, so the faster
  // half of a 20 s run still pools about 1000 calls (p99 keeps ten beyond
  // it), and p99 is not just the slowest session of a few dozen.
  const std::size_t replicas = scaled(28.0, scale(o), 1);
  const ParallelSweep pool{o.jobs};
  std::vector<std::unique_ptr<sim::ArenaResource>> arenas;
  std::vector<std::unique_ptr<obs::RingBufferSink>> sinks;
  for (std::size_t w = 0; w < pool.jobs(); ++w) {
    arenas.push_back(std::make_unique<sim::ArenaResource>());
    sinks.push_back(std::make_unique<obs::RingBufferSink>(4096));
  }

  std::vector<streaming::SessionConfig> configs;
  std::size_t catalog_size = 0;

  // One call: a session with its world digest (and, when `armed`, a trace
  // sink), then the batch report on the video trace, then the outcome folded
  // into the digest. Errors are caught here so one failing session counts
  // once and the pass goes on.
  const auto call = [&](std::size_t i, bool armed) {
    SessionCall rec;
    const std::size_t w = ParallelSweep::current_worker();
    const SpanLog::Scope task{log, "session", Layer::kBench, i, w};
    rec.start_s = now_s();
    try {
      arenas[w]->reset();
      streaming::SessionConfig cfg = configs[i];
      check::StateDigest digest;
      cfg.digest = &digest;
      cfg.arena = arenas[w].get();
      if (armed) cfg.trace_sink = sinks[w].get();
      streaming::SessionResult result;
      {
        const SpanLog::Scope span{log, "run_session", Layer::kStreaming, i, w};
        result = streaming::run_session(cfg);
      }
      rec.run_s = now_s() - rec.start_s;
      {
        const SpanLog::Scope span{log, "build_report", Layer::kAnalysis, i, w};
        analysis::ReportOptions ro;
        ro.resilience = result.resilience;
        rec.report = analysis::build_report(result.video_trace(), ro);
      }
      {
        const SpanLog::Scope span{log, "fold_outcome", Layer::kCheck, i, w};
        streaming::fold_outcome(digest, result);
      }
      rec.digest = digest.value();
      rec.words = digest.words_mixed();
      rec.bytes = result.bytes_downloaded;
      rec.events = result.sim_events;
      rec.pending = result.sim_max_events_pending;
      rec.connections = result.connections;
      rec.packets = result.trace.packets.size();
      rec.trace_bytes = gauge(result.metrics, "capture.trace_bytes");
      rec.stalls = result.player.stall_count;
      rec.fetch_retries = result.resilience.fetch_retries;
      rec.segments_delivered = counter(result.metrics, "net.segments_delivered");
      rec.drops_queue = counter(result.metrics, "net.drops_queue");
      rec.drops_loss = counter(result.metrics, "net.drops_loss");
      rec.drops_fault = counter(result.metrics, "net.drops_fault");
      rec.queue_high_water = gauge(result.metrics, "net.queue_high_water_bytes");
      rec.segments_sent = counter(result.metrics, "tcp.segments_sent");
      rec.segments_retx = counter(result.metrics, "tcp.segments_retransmitted");
      rec.tcp_timeouts = counter(result.metrics, "tcp.timeouts");
      if (rec.bytes == 0 || rec.report.packets == 0) rec.error = "session produced no traffic";
    } catch (const std::exception& e) {
      rec.error = e.what();
    }
    rec.call_s = now_s() - rec.start_s;
    return rec;
  };

  const auto run_pass = [&](std::size_t count, std::uint64_t trace_id) {
    const SpanLog::Scope span{log, "map", Layer::kRunner, trace_id, 0};
    log.set_fanout_parent(span.id());
    return pool.map<SessionCall>(count, [&call](std::size_t i) { return call(i, false); });
  };

  std::vector<SessionCall> warm;
  const double setup_s = timed_setup(o, [&] {
    std::vector<streaming::NamedScenario> catalog = streaming::canonical_scenarios(180.0);
    for (auto& s : streaming::fault_scenarios(180.0)) catalog.push_back(std::move(s));
    catalog_size = catalog.size();
    configs.clear();
    for (std::size_t r = 0; r < replicas; ++r) {
      for (std::size_t k = 0; k < catalog.size(); ++k) {
        configs.push_back(catalog[k].config);
        configs.back().seed = derive_seed(o.seed, r * catalog.size() + k);
      }
    }
    warm = run_pass(catalog_size, 0);  // warm-up: replica 0 of every entry
  });

  // Every session must reproduce its first run bit-for-bit: the warm-up's
  // replica 0 checks the first pass, the first pass checks all later ones.
  std::vector<SessionCall> reference;
  std::vector<RoundStat> timed;
  std::vector<double> run_s;
  double max_task_s = 0.0;
  const auto check_call = [&](std::size_t i, const SessionCall& got) {
    const SessionCall* want = reference.empty() ? (i < warm.size() ? &warm[i] : nullptr)
                                                : &reference[i];
    std::string error = got.error;
    if (error.empty() && want != nullptr &&
        (got.digest != want->digest || got.words != want->words || !(got.report == want->report))) {
      error = "session " + std::to_string(i) + ": digest or report differs from its first run";
    }
    out.check(error.empty(), error);
  };

  const Rounds rounds = timed_rounds(o, log, 2, [&](std::size_t index, bool traced) {
    const double t0 = now_s();
    std::vector<SessionCall> pass = run_pass(configs.size(), index);
    RoundStat stat{now_s() - t0, static_cast<double>(pass.size()), 0.0, {}};
    {
      const SpanLog::Scope span{log, "check_pass", Layer::kCheck, index, 0};
      for (std::size_t i = 0; i < pass.size(); ++i) check_call(i, pass[i]);
    }
    for (const SessionCall& c : pass) {
      stat.mb += static_cast<double>(c.bytes) / 1e6;
      stat.call_s.push_back(c.call_s);
      if (!traced) run_s.push_back(c.run_s);
      max_task_s = std::max(max_task_s, c.call_s);
    }
    if (!traced) timed.push_back(std::move(stat));
    if (reference.empty()) reference = std::move(pass);
  });

  add_end_to_end(out, setup_s, timed);
  out.info.emplace_back("sessions_per_round", static_cast<double>(configs.size()));
  out.info.emplace_back("catalog_entries", static_cast<double>(catalog_size));
  if (!o.traced) return out;

  // Obs overhead, paired: each session runs unarmed and then with a
  // RingBufferSink attached, back to back on one worker, so both see the
  // same machine state. Tracing is digest-neutral by contract, so both runs
  // must match the reference.
  const std::vector<std::pair<SessionCall, SessionCall>> paired =
      pool.map<std::pair<SessionCall, SessionCall>>(configs.size(), [&call](std::size_t i) {
        SessionCall plain = call(i, false);
        return std::make_pair(std::move(plain), call(i, true));
      });
  double plain_s = 0.0;
  double armed_s = 0.0;
  for (std::size_t i = 0; i < paired.size(); ++i) {
    check_call(i, paired[i].first);
    check_call(i, paired[i].second);
    plain_s += paired[i].first.run_s;
    armed_s += paired[i].second.run_s;
  }

  double events = 0.0;
  double run_total = 0.0;
  std::size_t pending = 0;
  double delivered = 0.0, drops_queue = 0.0, drops_loss = 0.0, drops_fault = 0.0;
  double queue_hw = 0.0, sent = 0.0, retx = 0.0, timeouts = 0.0, connections = 0.0;
  double packets = 0.0, trace_bytes = 0.0, stalls = 0.0, retries = 0.0;
  for (const SessionCall& c : reference) {
    events += static_cast<double>(c.events);
    run_total += c.run_s;
    pending = std::max(pending, c.pending);
    delivered += static_cast<double>(c.segments_delivered);
    drops_queue += static_cast<double>(c.drops_queue);
    drops_loss += static_cast<double>(c.drops_loss);
    drops_fault += static_cast<double>(c.drops_fault);
    queue_hw = std::max(queue_hw, c.queue_high_water);
    sent += static_cast<double>(c.segments_sent);
    retx += static_cast<double>(c.segments_retx);
    timeouts += static_cast<double>(c.tcp_timeouts);
    connections += static_cast<double>(c.connections);
    packets += static_cast<double>(c.packets);
    trace_bytes += c.trace_bytes;
    stalls += static_cast<double>(c.stalls);
    retries += static_cast<double>(c.fetch_retries);
  }
  const double hops = delivered + drops_queue + drops_loss + drops_fault;
  const double n = static_cast<double>(std::max<std::size_t>(reference.size(), 1));
  out.per_layer = {
      {"runner.max_task_s", max_task_s},
      {"sim.events", events},
      {"sim.events_per_s", run_total > 0.0 ? events / run_total : 0.0},
      {"sim.pending_high_water", static_cast<double>(pending)},
      {"net.segments_delivered", delivered},
      {"net.drops_queue", drops_queue},
      {"net.drops_loss", drops_loss},
      {"net.drops_fault", drops_fault},
      {"net.queue_high_water_bytes", queue_hw},
      {"tcp.segments_sent", sent},
      {"tcp.retx_share", sent > 0.0 ? retx / sent : 0.0},
      {"tcp.timeouts", timeouts},
      {"tcp.connections", connections},
      {"streaming.call_tail_ratio", tail_ratio(run_s)},
      {"streaming.rebuffers", stalls},
      {"streaming.fetch_retries", retries},
      {"capture.trace_mb", trace_bytes / n / 1e6},
      {"capture.packets", packets / n},
      {"obs.armed_overhead_share", plain_s > 0.0 ? armed_s / plain_s - 1.0 : 0.0},
  };
  add_calibrated(out, log, "table1_catalog", pool.jobs(), pending, events, hops, run_total, rounds);
  return out;
}

// ---------------------------------------------------------------------------
// capacity_short: capacity-planner-shaped 2 s sessions through the streamed
// sweep, where world set-up and runner hand-off are a large share.

streaming::SessionConfig capacity_config(std::uint64_t seed, std::size_t g) {
  static constexpr net::Vantage kVantages[] = {net::Vantage::kResearch, net::Vantage::kResidence,
                                               net::Vantage::kAcademic, net::Vantage::kHome};
  const std::uint64_t s = derive_seed(seed, g);
  video::VideoMeta meta;
  meta.id = "capacity";
  meta.duration_s = 120.0;
  meta.encoding_bps = 1.0e6 + 2.5e5 * static_cast<double>(s % 5);
  meta.container = g % 2 == 0 ? video::Container::kFlash : video::Container::kHtml5;
  return streaming::SessionBuilder{}
      .vantage(kVantages[g % 4])
      .video(meta)
      .container(meta.container)
      .capture_duration_s(2.0)
      .seed(s)
      .store_trace(false)
      .build();
}

Outcome run_capacity(const Options& o, SpanLog& log) {
  Outcome out;
  const std::size_t sessions = scaled(1024.0, scale(o), 4 * o.jobs);
  ParallelSweep pool{o.jobs};
  std::vector<streaming::SessionConfig> configs;

  // make(g) runs on the worker right before session g, so the gap to the
  // worker's next make() is that session's time in the sweep.
  struct alignas(64) Starts {
    std::vector<std::pair<double, std::size_t>> at;
  };
  std::vector<Starts> starts(pool.jobs());
  const auto make = [&](std::size_t g) {
    starts[ParallelSweep::current_worker()].at.emplace_back(now_s(), g);
    return configs[g];
  };

  const double setup_s = timed_setup(o, [&] {
    configs.clear();
    for (std::size_t g = 0; g < sessions; ++g) configs.push_back(capacity_config(o.seed, g));
    (void)runner::run_sessions_streamed(pool, 0, std::min<std::size_t>(64, sessions), make);
  });

  runner::SweepDigest reference;
  std::vector<RoundStat> timed;
  std::vector<double> call_s;  ///< every untraced session
  double max_task_s = 0.0;
  runner::SweepAccumulator first;
  const Rounds rounds = timed_rounds(o, log, 2, [&](std::size_t index, bool traced) {
    for (Starts& s : starts) s.at.clear();
    runner::SweepProfiler profiler{pool.jobs()};
    pool.set_profiler(traced ? &profiler : nullptr);
    runner::SweepAccumulator acc;
    std::string error;
    const double t0 = now_s();
    double wall = 0.0;
    RoundStat stat;
    {
      const SpanLog::Scope span{log, "run_sessions_streamed", Layer::kRunner, index, 0};
      try {
        acc = runner::run_sessions_streamed(pool, 0, sessions, make);
      } catch (const std::exception& e) {
        error = e.what();
      }
      wall = now_s() - t0;
      // Per-worker session spans from the make() timestamps; each worker's
      // last session ends where its profiled run time says it did.
      const runner::SweepProfiler::Summary summary = profiler.summary();
      for (std::size_t w = 0; w < starts.size(); ++w) {
        const auto& at = starts[w].at;
        double gaps = 0.0;
        for (std::size_t k = 0; k < at.size(); ++k) {
          double end = 0.0;
          if (k + 1 < at.size()) {
            end = at[k + 1].first;
            gaps += end - at[k].first;
            stat.call_s.push_back(end - at[k].first);
          } else if (traced && w < summary.per_worker.size()) {
            const double run = summary.per_worker[w].phase_s[kRunPhase];
            end = at[k].first + std::max(run - gaps, 0.0);
          } else {
            continue;
          }
          max_task_s = std::max(max_task_s, end - at[k].first);
          log.add("session", Layer::kStreaming, at[k].first, end, at[k].second, w, span.id());
        }
      }
    }
    pool.set_profiler(nullptr);
    {
      const SpanLog::Scope span{log, "check_digest", Layer::kCheck, index, 0};
      if (error.empty() && acc.digest.sessions != sessions) error = "sweep lost sessions";
      if (error.empty() && reference.sessions == 0) {
        reference = acc.digest;
        first = acc;
      }
      if (error.empty() && !(acc.digest == reference)) error = "sweep digest differs from pass 0";
    }
    // The streamed sweep keeps no per-session result, so a bad pass fails
    // every session in it.
    for (std::size_t s = 0; s < sessions; ++s) out.check(error.empty(), error);
    if (!traced) {
      stat.wall_s = wall;
      stat.sessions = static_cast<double>(sessions);
      stat.mb = static_cast<double>(acc.bytes_downloaded) / 1e6;
      call_s.insert(call_s.end(), stat.call_s.begin(), stat.call_s.end());
      timed.push_back(std::move(stat));
    }
  });

  add_end_to_end(out, setup_s, timed);
  out.info.emplace_back("sessions_per_round", static_cast<double>(sessions));
  if (!o.traced) return out;

  out.per_layer = {
      {"runner.max_task_s", max_task_s},
      {"sim.events", static_cast<double>(first.sim_events)},
      {"sim.pending_high_water", static_cast<double>(first.max_events_pending)},
      {"tcp.connections", static_cast<double>(first.connections)},
      {"streaming.call_tail_ratio", tail_ratio(call_s)},
      {"streaming.rebuffers", static_cast<double>(first.rebuffer_count)},
      {"streaming.fetch_retries", static_cast<double>(first.fetch_retries)},
  };
  double session_total = 0.0;
  for (const double c : call_s) session_total += c;
  // call_s covers the untraced rounds' sessions; scale events to match.
  const double untraced_sessions = static_cast<double>(call_s.size());
  const double events = static_cast<double>(first.sim_events) * untraced_sessions /
                        static_cast<double>(sessions);
  out.per_layer.emplace_back("sim.events_per_s",
                             session_total > 0.0 ? events / session_total : 0.0);
  add_calibrated(out, log, "capacity_short", pool.jobs(), first.max_events_pending, events, 0.0,
                 session_total, rounds);
  return out;
}

// ---------------------------------------------------------------------------
// flash_crowd and churn_world: one shared-bottleneck world per call, run on
// the caller's thread.

struct WorldShape {
  const char* name;
  std::function<streaming::TopologyConfig(double size)> make;  ///< size 1 = timed world
  double warm_size;  ///< the set-up's warm-up world, as a fraction of the timed one
};

streaming::TopologyConfig flash_config(std::uint64_t seed, double input_scale, double size) {
  // 100 kbps of shared link per viewer (1 Gbps per 10k viewers, as in
  // capacity_planner --flash-crowd), so every crowd size sees the same
  // per-viewer share and congestion.
  const std::size_t viewers = scaled(2500.0 * size, input_scale, 20);
  video::VideoMeta meta;
  meta.id = "crowd";
  meta.duration_s = 20.0;
  meta.encoding_bps = 75e3;
  meta.container = video::Container::kFlashHd;
  return streaming::TopologyBuilder{}
      .container(video::Container::kFlashHd)
      .vantage(net::Vantage::kResidence)
      .video(meta)
      .sessions(viewers)
      .workload(streaming::WorkloadBuilder{}
                    .flash_crowd(5.0)
                    .customize([](std::size_t, sim::Rng& rng, streaming::SessionConfig& cfg) {
                      cfg.video.encoding_bps = rng.uniform(50e3, 100e3);
                      cfg.video.duration_s = rng.uniform(15.0, 25.0);
                    })
                    .build())
      .bottleneck_rate_bps(1e9 * static_cast<double>(viewers) / 10'000.0)
      .horizon_s(35.0)
      .warmup_s(2.0)
      .sample_window_s(0.1)
      .seed(derive_seed(seed, 1))
      .build();
}

streaming::TopologyConfig churn_config(std::uint64_t seed, double input_scale, double size) {
  constexpr double kRate = 25.0;
  const double horizon = std::max(20.0, 300.0 * size * input_scale);
  video::VideoMeta meta;
  meta.id = "churn";
  meta.duration_s = 6.0;
  meta.encoding_bps = 75e3;
  meta.container = video::Container::kFlashHd;
  return streaming::TopologyBuilder{}
      .container(video::Container::kFlashHd)
      .vantage(net::Vantage::kResidence)
      .video(meta)
      .sessions(static_cast<std::size_t>(2.0 * kRate * horizon) + 100)
      .workload(streaming::WorkloadBuilder{}
                    .poisson(kRate)
                    .customize([](std::size_t, sim::Rng& rng, streaming::SessionConfig& cfg) {
                      cfg.video.encoding_bps = rng.uniform(50e3, 100e3);
                      cfg.video.duration_s = rng.uniform(4.0, 8.0);
                    })
                    .build())
      .bottleneck_rate_bps(60e6)
      .horizon_s(horizon)
      .warmup_s(10.0)
      .sample_window_s(0.1)
      .seed(derive_seed(seed, 2))
      .build();
}

Outcome run_world(const Options& o, SpanLog& log, const WorldShape& shape) {
  Outcome out;
  streaming::TopologyConfig config;
  const double setup_s = timed_setup(o, [&] {
    streaming::TopologyConfig warm = shape.make(shape.warm_size);
    (void)streaming::run_topology(warm);
    config = shape.make(1.0);
  });

  streaming::TopologyFingerprint reference;
  bool have_reference = false;
  streaming::TopologyResult first;
  std::vector<RoundStat> timed;
  std::vector<double> world_s;
  double rss_kb_per_viewer = 0.0;
  double eq3_rel_err = 0.0;
  const Rounds rounds = timed_rounds(o, log, 2, [&](std::size_t index, bool traced) {
    const std::uint64_t rss_before = current_rss_kb();
    streaming::TopologyResult result;
    check::StateDigest digest;
    std::string error;
    double wall = 0.0;
    {
      const SpanLog::Scope span{log, "run_topology", Layer::kStreaming, index, 0};
      streaming::TopologyConfig cfg = config;
      cfg.digest = &digest;
      const double t0 = now_s();
      try {
        result = streaming::run_topology(cfg);
      } catch (const std::exception& e) {
        error = e.what();
      }
      wall = now_s() - t0;
    }
    {
      const SpanLog::Scope span{log, "check_world", Layer::kCheck, index, 0};
      streaming::fold_topology_outcome(digest, result);
      const streaming::TopologyFingerprint print{digest.value(), digest.words_mixed(),
                                                 result.sim_events, result.bytes_downloaded};
      if (error.empty() && result.sessions_started != result.sessions_finished +
                                                          result.sessions_interrupted +
                                                          result.sessions_active_at_end) {
        error = "topology conservation broken: started != finished + interrupted + active";
      }
      if (error.empty() && result.sessions_started == 0) error = "world admitted no session";
      if (error.empty() && !have_reference) {
        reference = print;
        have_reference = true;
        first = result;
        const double hwm = static_cast<double>(peak_rss_kb());
        const double grown = std::max(hwm - static_cast<double>(rss_before), 0.0);
        rss_kb_per_viewer = result.concurrency.peak > 0.0 ? grown / result.concurrency.peak : 0.0;
      }
      if (error.empty() && !(print == reference)) error = "world digest differs from world 0";
    }
    {
      const SpanLog::Scope span{log, "eq3", Layer::kModel, index, 0};
      const double predicted = model::mean_aggregate_rate_bps(result.measured_model_params());
      if (predicted > 0.0) eq3_rel_err = std::abs(result.mean_aggregate_bps() / predicted - 1.0);
    }
    out.check(error.empty(), error);
    world_s.push_back(wall);
    if (!traced) {
      timed.push_back(RoundStat{wall, static_cast<double>(result.sessions_started),
                                static_cast<double>(result.bytes_downloaded) / 1e6, {wall}});
    }
  });

  add_end_to_end(out, setup_s, timed);
  out.info.emplace_back("sessions_per_world", static_cast<double>(first.sessions_started));
  if (!o.traced) return out;

  const double events = static_cast<double>(first.sim_events);
  // Each video segment crosses the shared link and its viewer's access leg;
  // ACK hops are left out, so the link share is a lower bound.
  const double hops = 2.0 * static_cast<double>(first.video_payload_bytes) / 1460.0;
  const double world = median(faster_half(world_s));
  out.per_layer = {
      {"runner.max_task_s", *std::max_element(world_s.begin(), world_s.end())},
      {"sim.events", events},
      {"sim.events_per_s", world > 0.0 ? events / world : 0.0},
      {"sim.pending_high_water", static_cast<double>(first.sim_max_events_pending)},
      {"net.bottleneck_drops_queue", static_cast<double>(first.bottleneck_dropped_queue)},
      {"net.bottleneck_wire_mb", static_cast<double>(first.bottleneck_wire_bytes) / 1e6},
      {"net.useful_share", first.video_payload_bytes > 0
                               ? static_cast<double>(first.bytes_downloaded) /
                                     static_cast<double>(first.video_payload_bytes)
                               : 0.0},
      {"tcp.connections", static_cast<double>(first.connections)},
      {"streaming.call_tail_ratio", tail_ratio(faster_half(world_s))},
      {"streaming.arrivals", static_cast<double>(first.sessions_started)},
      {"streaming.peak_concurrency", first.concurrency.peak},
      {"streaming.rss_kb_per_viewer", rss_kb_per_viewer},
      {"model.eq3_rel_err", eq3_rel_err},
  };
  add_calibrated(out, log, shape.name, 1, first.sim_max_events_pending, events, hops, world,
                 rounds);
  return out;
}

// ---------------------------------------------------------------------------
// capture_classify: a synthetic multi-connection capture classified on the
// 2-worker pool. No sim/tcp/net code runs: the control for simulator changes.

Outcome run_capture(const Options& o, SpanLog& log) {
  Outcome out;
  const ParallelSweep pool{o.jobs};
  const std::string path = o.workdir + "/capture.pcap";
  capture::SyntheticCaptureOptions gen;
  // The seed picks the connection count (63-65, so the per-connection work
  // stays comparable across seeds) and the handshake stagger. A connection
  // needs a few MB for its long cycles to be detected, so small runs keep
  // fewer connections.
  const std::uint64_t pick = derive_seed(o.seed, 3);
  const std::size_t wanted = 63 + pick % 3;
  const std::uint64_t target = std::max<std::uint64_t>(
      16ULL << 20U,
      static_cast<std::uint64_t>(256.0 * static_cast<double>(1ULL << 20U) * scale(o)));
  gen.connections = std::clamp<std::size_t>(target / (4ULL << 20U), 6, wanted);
  gen.start_spacing_s = 0.02 + 0.01 * static_cast<double>((pick >> 8U) % 7);
  gen.target_file_bytes = target;

  std::unique_ptr<capture::MmapPcapReader> reader;
  capture::SyntheticCaptureSummary summary;
  std::vector<double> write_mb_per_s;
  const double setup_s = timed_setup(o, [&] {
    reader.reset();
    const double t0 = now_s();
    summary = capture::write_synthetic_capture(path, gen);
    write_mb_per_s.push_back(static_cast<double>(summary.file_bytes) / 1e6 / (now_s() - t0));
    reader = std::make_unique<capture::MmapPcapReader>(path);
    (void)analysis::classify_capture(*reader, pool);  // warm-up: pages in the file
  });

  // Ground truth by construction (capture/synthetic.hpp): connection c is
  // short cycles for c%3==1, long cycles for c%3==2, bulk for c%3==0. The
  // one-lane classification is the reference every pass must equal.
  const analysis::CaptureClassification serial = analysis::classify_capture_serial(*reader);
  static constexpr analysis::Strategy kTruth[] = {analysis::Strategy::kNoOnOff,
                                                  analysis::Strategy::kShortOnOff,
                                                  analysis::Strategy::kLongOnOff};
  std::size_t label_mismatches = 0;
  for (const analysis::ConnectionLabel& row : serial.connections) {
    if (row.strategy != kTruth[row.connection_id % 3]) ++label_mismatches;
  }
  if (serial.connections.size() != gen.connections) ++label_mismatches;

  const double file_mb = static_cast<double>(reader->file_bytes()) / 1e6;
  std::vector<RoundStat> timed;
  std::vector<double> lane_s;
  double serial_s = 0.0;
  double traced_pass_s = 0.0;
  double max_task_s = 0.0;
  const Rounds rounds = timed_rounds(o, log, 2, [&](std::size_t index, bool traced) {
    runner::SweepProfiler profiler{pool.jobs()};
    analysis::CaptureClassification got;
    std::string error;
    double wall = 0.0;
    {
      const SpanLog::Scope span{log, "classify_capture", Layer::kRunner, index, 0};
      const double t0 = now_s();
      try {
        got = analysis::classify_capture(*reader, pool, {}, traced ? &profiler : nullptr);
      } catch (const std::exception& e) {
        error = e.what();
      }
      const double t1 = now_s();
      wall = t1 - t0;
      if (traced) {
        // The profiler times the three passes; lay them out as spans: the
        // serial partition first, the lanes after it, the merge last.
        const runner::SweepProfiler::Summary s = profiler.summary();
        const double build = s.per_worker[0].phase_s[kBuildPhase];
        const double merge = s.per_worker[0].phase_s[kMergePhase];
        log.add("partition_capture", Layer::kAnalysis, t0, t0 + build, index, 0, span.id());
        for (std::size_t w = 0; w < s.per_worker.size(); ++w) {
          const double run = s.per_worker[w].phase_s[kRunPhase];
          if (run <= 0.0) continue;
          log.add("classify_lane", Layer::kAnalysis, t0 + build, t0 + build + run, index, w,
                  span.id());
          lane_s.push_back(run);
          max_task_s = std::max(max_task_s, s.per_worker[w].phase_max_s[kRunPhase]);
        }
        log.add("merge_lanes", Layer::kAnalysis, t1 - merge, t1, index, 0, span.id());
        serial_s += build + merge;
        traced_pass_s += wall;
      }
    }
    {
      const SpanLog::Scope span{log, "check_labels", Layer::kCheck, index, 0};
      if (error.empty() && !(got == serial)) error = "2-lane classification differs from 1-lane";
      if (error.empty() && label_mismatches > 0) {
        error = std::to_string(label_mismatches) + " connection label(s) differ from ground truth";
      }
    }
    out.check(error.empty(), error);
    if (!traced) {
      timed.push_back(
          RoundStat{wall, static_cast<double>(got.connections.size()), file_mb, {wall}});
    }
  });

  add_end_to_end(out, setup_s, timed);
  out.info.emplace_back("capture_mb", file_mb);
  out.info.emplace_back("connections", static_cast<double>(gen.connections));
  if (!o.traced) return out;

  double lane_mean = 0.0;
  for (const double l : lane_s) lane_mean += l / static_cast<double>(lane_s.size());
  out.per_layer = {
      {"runner.max_task_s", max_task_s},
      {"capture.records", static_cast<double>(summary.records)},
      {"capture.write_mb_per_s", median(write_mb_per_s)},
      {"analysis.serial_share", traced_pass_s > 0.0 ? serial_s / traced_pass_s : 0.0},
      {"analysis.lane_imbalance",
       lane_mean > 0.0 ? *std::max_element(lane_s.begin(), lane_s.end()) / lane_mean - 1.0 : 0.0},
      {"analysis.label_mismatches", static_cast<double>(label_mismatches)},
  };
  add_calibrated(out, log, "capture_classify", pool.jobs(), 0, 0.0, 0.0, 0.0, rounds);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table1_catalog", "capacity_short",
                                                 "flash_crowd", "churn_world",
                                                 "capture_classify"};
  return names;
}

Outcome run_workload(const Options& o, SpanLog& log) {
  if (o.workload == "table1_catalog") return run_table1(o, log);
  if (o.workload == "capacity_short") return run_capacity(o, log);
  if (o.workload == "flash_crowd") {
    return run_world(o, log,
                     WorldShape{"flash_crowd",
                                [&o](double size) { return flash_config(o.seed, scale(o), size); },
                                0.2});
  }
  if (o.workload == "churn_world") {
    return run_world(o, log,
                     WorldShape{"churn_world",
                                [&o](double size) { return churn_config(o.seed, scale(o), size); },
                                0.2});
  }
  if (o.workload == "capture_classify") return run_capture(o, log);
  throw std::invalid_argument{"unknown workload: " + o.workload};
}

}  // namespace vstream::e2e
