// Shared infrastructure for the per-table/per-figure reproduction benches.
//
// Every bench binary prints the paper-style rows/series for its table or
// figure, then runs a google-benchmark section timing the binary's key
// kernel. The number of sessions per sweep is tunable via the
// VSTREAM_BENCH_SESSIONS environment variable (default 30) so quick runs
// and thorough runs use the same binaries. When VSTREAM_BENCH_CSV_DIR is
// set, every printed CDF table and download curve is also written there as
// CSV for external plotting.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/onoff.hpp"
#include "analysis/strategy.hpp"
#include "capture/trace_view.hpp"
#include "net/profile.hpp"
#include "obs/metrics.hpp"
#include "runner/parallel_sweep.hpp"
#include "runner/sweep_profiler.hpp"
#include "stats/cdf.hpp"
#include "streaming/session.hpp"
#include "video/datasets.hpp"

namespace vstream::bench {

/// Sessions per sweep (VSTREAM_BENCH_SESSIONS, default 30).
[[nodiscard]] std::size_t sessions_per_sweep();

/// Default 180 s captures, as in the paper's methodology.
inline constexpr double kCaptureSeconds = 180.0;

/// One analysed streaming session.
struct SessionOutcome {
  streaming::SessionResult result;
  analysis::OnOffAnalysis analysis;
  analysis::StrategyDecision decision;
};

/// Run one session and the paper's full analysis on its trace.
[[nodiscard]] SessionOutcome run_and_analyze(const streaming::SessionConfig& config);

/// Run a batch of independent configs, fanned across cores when VSTREAM_JOBS
/// (or the hardware) allows (see runner::ParallelSweep). Results come back
/// in submission order and fold into the active RunTelemetry serially in
/// that same order, so the telemetry aggregate is independent of the worker
/// count. VSTREAM_JOBS=1 runs every session inline on the caller's thread.
[[nodiscard]] std::vector<SessionOutcome> run_and_analyze_all(
    const std::vector<streaming::SessionConfig>& configs);

/// Build a session config for a (service, container, application) combo on a
/// vantage network with a given video.
[[nodiscard]] streaming::SessionConfig make_config(streaming::Service service,
                                                   video::Container container,
                                                   streaming::Application application,
                                                   net::Vantage vantage,
                                                   const video::VideoMeta& video,
                                                   std::uint64_t seed);

/// Sweep `count` videos of a dataset through one combo on one vantage.
[[nodiscard]] std::vector<SessionOutcome> sweep(streaming::Service service,
                                                video::Container container,
                                                streaming::Application application,
                                                net::Vantage vantage, video::DatasetId dataset,
                                                std::size_t count, std::uint64_t seed);

// ---- output helpers ------------------------------------------------------

void print_header(const std::string& title, const std::string& paper_reference);

/// Print a CDF as fixed-quantile rows: q, x(q).
void print_cdf(const std::string& label, const stats::EmpiricalCdf& cdf,
               const std::string& unit, double scale = 1.0);

/// Print several CDFs side by side at shared quantiles.
void print_cdf_table(const std::vector<std::pair<std::string, stats::EmpiricalCdf>>& cdfs,
                     const std::string& unit, double scale = 1.0);

/// Print a download-amount curve (t, MB) at a fixed time step. Takes a
/// zero-copy view; plain `PacketTrace` converts implicitly.
void print_download_curve(const std::string& label, capture::TraceView trace, double t_max_s,
                          double step_s = 1.0);

/// Print the receive-window series summary (Fig 2b / 6a style).
void print_window_summary(const std::string& label, capture::TraceView trace);

/// Directory for CSV side-output (VSTREAM_BENCH_CSV_DIR), empty if unset.
[[nodiscard]] std::string csv_dir();

// ---- machine-readable run telemetry --------------------------------------

/// Aggregated run telemetry behind the `--metrics-out [path]` flag. Each
/// bench main calls `init` before benchmark::Initialize (init strips the
/// flag from argv so google-benchmark never sees it) and `finalize` last
/// thing before returning. `run_and_analyze` folds every session into the
/// active collector automatically: per-session registry snapshots merge
/// (counters add, gauges take the max), simulator event counts and block
/// sizes accumulate. `finalize` writes one JSON object — wall time,
/// sessions, events/sec, median block size, median accumulation ratio, any
/// `note_metric` extras, and the merged registry snapshot — to the given
/// path (default `BENCH_<name>.json`).
class RunTelemetry {
 public:
  static RunTelemetry& instance();

  /// Parse and strip `--metrics-out [path]` / `--metrics-out=path`. Bare
  /// flag defaults the output file to BENCH_<name>.json.
  void init(const std::string& name, int* argc, char** argv);

  [[nodiscard]] bool enabled() const { return !out_path_.empty(); }
  [[nodiscard]] const std::string& out_path() const { return out_path_; }

  /// Fold one analysed session into the aggregate (no-op when disabled).
  void record(const SessionOutcome& outcome);

  /// Fold one sweep's per-worker profile into the aggregate (no-op when
  /// disabled). `run_and_analyze_all` profiles every sweep and
  /// calls this; finalize() reports the pooled wall/busy/utilization as
  /// sweep_* extras.
  void record_sweep(const runner::SweepProfiler::Summary& summary);

  /// Attach a named scalar to the report's "extra" object.
  void note_metric(const std::string& name, double value);

  /// Write the JSON report (no-op when --metrics-out was not given).
  void finalize();

 private:
  std::string name_;
  std::string out_path_;
  std::chrono::steady_clock::time_point start_{};
  std::size_t sessions_{0};
  double sim_time_s_{0.0};
  std::uint64_t sim_events_{0};
  std::size_t sim_max_events_pending_{0};
  std::vector<double> block_sizes_bytes_;
  std::vector<double> accumulation_ratios_;
  obs::MetricsSnapshot merged_;
  std::map<std::string, double> extra_;
  // Pooled sweep-profile aggregate (record_sweep).
  double sweep_wall_s_{0.0};
  double sweep_busy_s_{0.0};
  double sweep_capacity_s_{0.0};  ///< sum of wall x workers per sweep
  std::uint64_t sweep_tasks_{0};
  std::size_t sweep_workers_{0};  ///< widest pool seen
};

}  // namespace vstream::bench
