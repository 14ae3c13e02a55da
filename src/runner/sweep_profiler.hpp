// Per-worker wall-clock profiling for sweep runs.
//
// A sweep spends its time in four phases — building configs, running
// session worlds, analyzing captures, and merging results — and at a
// million sessions the difference between a balanced pool and one worker
// dragging the tail is invisible without per-worker numbers. SweepProfiler
// records, per worker, the wall-clock seconds and task counts of each
// phase; the Summary derives busy/idle splits and utilization against the
// sweep's own wall span, and serializes to the BENCH_sweep_profile.json
// shape the capacity planner publishes.
//
// This file (and its .cpp) is the only simulation-adjacent code allowed to
// read the wall clock: everything inside a session world runs on sim-time,
// and tools/vstream_lint.py pins std::chrono usage to exactly this pair of
// files plus the existing SimLoopMonitor waiver. Profiling never touches a
// Simulator, an RNG, or a digest — arming it cannot perturb a run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "check/thread_safety.hpp"

namespace vstream::runner {

/// The four phases of a sweep, in pipeline order.
enum class SweepPhase : std::uint8_t { kBuild = 0, kRun, kAnalyze, kMerge };

inline constexpr std::size_t kSweepPhaseCount = 4;

[[nodiscard]] const char* to_string(SweepPhase phase);

/// Peak resident set of this process in kB (Linux VmHWM from
/// /proc/self/status), 0 if unreadable.
[[nodiscard]] std::size_t peak_rss_kb();

class SweepProfiler {
 public:
  /// `workers` is the pool width being profiled (>= 1); worker 0 is the
  /// caller's thread. Construction stamps the profile's wall-clock epoch.
  explicit SweepProfiler(std::size_t workers);

  SweepProfiler(const SweepProfiler&) = delete;
  SweepProfiler& operator=(const SweepProfiler&) = delete;

  /// RAII phase timer: measures from construction to destruction and adds
  /// the elapsed wall seconds (plus one task) to (worker, phase). A Scope
  /// on a null profiler is inert, so call sites don't need branches.
  class Scope {
   public:
    Scope(SweepProfiler* profiler, std::size_t worker, SweepPhase phase);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SweepProfiler* profiler_;
    std::size_t worker_;
    SweepPhase phase_;
    double begin_s_;
  };

  /// Add `seconds` of `phase` work (and `tasks` completions) to `worker`.
  /// Safe to call concurrently for *distinct* workers — partition, not
  /// locks: each worker owns its cache-line-padded cell outright, which is
  /// outside clang's capability model, hence the explicit escape hatch.
  /// The partition is verified dynamically by the CI tsan job (DESIGN.md
  /// §12 records the policy: lock-based state is annotated statically,
  /// partition-based state is exempted explicitly and TSan-verified).
  void record(std::size_t worker, SweepPhase phase, double seconds,
              std::size_t tasks = 1) VSTREAM_NO_THREAD_SAFETY_ANALYSIS;

  /// Seconds since this profiler was constructed (wall clock).
  [[nodiscard]] double elapsed_s() const;

  [[nodiscard]] std::size_t workers() const { return cells_.size(); }

  struct WorkerStats {
    std::array<double, kSweepPhaseCount> phase_s{};
    std::array<std::uint64_t, kSweepPhaseCount> phase_tasks{};
    /// Longest single record() per phase — for Scope-timed work, the worst
    /// single task. Averages hide a straggler session behind a balanced
    /// mean; the max is what tail imbalance actually looks like.
    std::array<double, kSweepPhaseCount> phase_max_s{};

    [[nodiscard]] double busy_s() const;
    [[nodiscard]] std::uint64_t tasks() const;
    /// Worst single task across all phases (straggler visibility).
    [[nodiscard]] double max_task_s() const;
  };

  struct Summary {
    std::size_t workers{0};
    double wall_s{0.0};
    std::vector<WorkerStats> per_worker;

    [[nodiscard]] double busy_s() const;
    [[nodiscard]] std::uint64_t tasks() const;
    /// Idle = workers x wall span minus busy; the tail a slow worker leaves.
    [[nodiscard]] double idle_s() const;
    /// busy / (workers x wall), in [0, 1]. Zero when the span is empty.
    [[nodiscard]] double utilization() const;
    /// Worst single task across every worker and phase — the sweep's
    /// straggler bound (a pool cannot finish faster than its longest task).
    [[nodiscard]] double max_task_s() const;

    /// Serialize as a JSON object (the BENCH_sweep_profile.json payload).
    [[nodiscard]] std::string to_json(const std::string& name) const;
  };

  /// Snapshot the profile against the current wall span. Call after the
  /// pool has quiesced (joined); not synchronized with in-flight Scopes —
  /// the thread join is the happens-before edge that publishes every cell.
  [[nodiscard]] Summary summary() const;

 private:
  // One cache line per worker so concurrent record() calls never bounce a
  // line between cores; 64 is the common x86/ARM line size and the padding
  // is only a correctness-of-performance concern, never of data.
  struct alignas(64) Cell {
    std::array<double, kSweepPhaseCount> seconds{};
    std::array<std::uint64_t, kSweepPhaseCount> tasks{};
    std::array<double, kSweepPhaseCount> max_s{};
  };

  [[nodiscard]] double now_s() const;

  std::vector<Cell> cells_;
  double epoch_s_{0.0};
};

}  // namespace vstream::runner
