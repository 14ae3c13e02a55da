// Multi-core fan-out: a shared-nothing thread pool for sweeps.
//
// The paper's results are sweep-scale statements — thousands of sessions
// across service × container × application × vantage combos (Table 1, §2),
// and §6's aggregate over many shared-bottleneck worlds — and every world
// is independent: it builds its own `Simulator`, `ObsContext`, RNG tree and
// TCP fabric from its config's seed. `ParallelSweep` exploits exactly that:
// workers claim *chunks* of indices from a shared counter (one atomic op per
// chunk, not per index) and run each index in complete isolation.
//
// `fold` is the primitive every sweep runner layers on. Each worker owns a
// cache-line-padded lane holding a recycled arena (no global-allocator
// contention on any simulation path) and a partial accumulator; the
// partials merge serially on the caller's thread after the pool joins.
// `map` is `fold` over index-tagged staging, spliced into submission order;
// the streamed session and topology sweeps (runner/session_sweep.hpp,
// runner/topology_sweep.hpp) are `fold` over one world per index. This
// header knows nothing of worlds: tools/vstream_lint.py keeps it free of
// streaming/ includes.
//
// Worker count: explicit argument, else the VSTREAM_JOBS environment
// variable, else the hardware concurrency; 1 runs inline on the caller's
// thread (bit-identical to the historical serial path, no threads spawned).
//
// This is the only directory in the tree allowed to touch std::thread —
// tools/vstream_lint.py enforces that simulation code stays single-threaded
// per world, which is what keeps twin-run determinism auditable.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "runner/sweep_profiler.hpp"
#include "sim/arena.hpp"

namespace vstream::runner {

/// Resolve the worker count: `requested` if nonzero, else VSTREAM_JOBS,
/// else std::thread::hardware_concurrency (at least 1). Garbage, zero or
/// negative VSTREAM_JOBS falls through to the hardware count; absurd values
/// clamp to kMaxJobs so a fat-fingered env var cannot fork-bomb the host.
[[nodiscard]] std::size_t job_count(std::size_t requested = 0);

/// Upper bound on the resolved worker count (env or explicit request).
inline constexpr std::size_t kMaxJobs = 512;

class ParallelSweep {
 public:
  /// `jobs == 0` resolves via job_count() (VSTREAM_JOBS / hardware).
  explicit ParallelSweep(std::size_t jobs = 0);

  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  /// Chunk-granular fan-out: workers claim contiguous index ranges
  /// [begin, end) off the shared counter and invoke `fn(begin, end, worker)`
  /// once per range — one atomic claim and one std::function dispatch per
  /// chunk instead of per index, with `worker` the executing pool worker for
  /// per-worker staging. `fn` must be safe to call concurrently for distinct
  /// ranges. `chunk == 0` picks a size automatically (~16 claims per worker,
  /// capped so stragglers still steal); `chunk == 1` makes every index its
  /// own range. A chunk callback that throws abandons the rest of *that
  /// chunk only*; the sweep still drains every other chunk and rethrows the
  /// first error at the end (further errors are counted — see
  /// errors_dropped()).
  void for_each_chunk(std::size_t count, std::size_t chunk,
                      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) const;

  /// Fold `fn(partial, i, arena)` over every i in [0, count). Each worker
  /// owns a lane: a recycled arena, reset before each index, and a
  /// default-constructed `Acc` partial. Each index is timed as a kRun task
  /// on an attached profiler. After the pool joins, the partials merge in
  /// worker order through `Acc::merge(Acc&&)` under one kMerge scope on the
  /// caller's thread. Errors follow for_each_chunk: a throwing index
  /// abandons the rest of its chunk, and the first error is rethrown once
  /// every other chunk has drained.
  template <typename Acc, typename Fn>
  [[nodiscard]] Acc fold(std::size_t count, Fn&& fn) const {
    struct alignas(kLaneAlign) Lane {
      sim::ArenaResource arena;
      Acc partial{};
    };
    std::vector<Lane> lanes(jobs_);
    SweepProfiler* const profiler = profiler_;
    for_each_chunk(count, 0,
                   [&lanes, &fn, profiler](std::size_t begin, std::size_t end, std::size_t worker) {
                     Lane& lane = lanes[worker];
                     for (std::size_t i = begin; i < end; ++i) {
                       const SweepProfiler::Scope scope{profiler, worker, SweepPhase::kRun};
                       lane.arena.reset();  // the previous index's world is gone
                       fn(lane.partial, i, lane.arena);
                     }
                   });
    const SweepProfiler::Scope merge_scope{profiler, 0, SweepPhase::kMerge};
    Acc total{};
    for (Lane& lane : lanes) total.merge(std::move(lane.partial));
    return total;
  }

  /// Fan `fn(i)` out and collect the results in submission (index) order —
  /// the order is a property of the indices, never of thread scheduling.
  /// Results are constructed in place in per-worker staging (R need not be
  /// default-constructible, and no element is written twice) and spliced
  /// into the output vector serially at the end.
  template <typename R, typename Fn>
  [[nodiscard]] std::vector<R> map(std::size_t count, Fn&& fn) const {
    using Run = std::vector<std::pair<std::size_t, R>>;
    struct Staging {
      Run items;  ///< this lane's results, index-ascending
      std::vector<Run> runs;
      void merge(Staging&& lane) { runs.push_back(std::move(lane.items)); }
    };
    Staging staged = fold<Staging>(count, [&fn](Staging& lane, std::size_t i, sim::ArenaResource&) {
      lane.items.emplace_back(i, fn(i));
    });
    return splice_runs<R>(count, staged.runs);
  }

  /// Attach a profiler (or nullptr to detach). While attached, every index
  /// run by fold or map is timed as a kRun task on the worker that executed
  /// it, and fold's merge as one kMerge task. The profiler must be sized for
  /// at least jobs() workers and must outlive every sweep call on this pool.
  /// Profiling is harness-side only: it never touches a session world, so
  /// results and digests are identical with or without it.
  void set_profiler(SweepProfiler* profiler) { profiler_ = profiler; }

  /// Errors beyond the first swallowed by the previous sweep on this pool
  /// (the first is rethrown with this count appended to its message). Reset
  /// at the start of every sweep; zero on a clean or single-failure sweep.
  [[nodiscard]] std::size_t errors_dropped() const {
    return errors_dropped_.load(std::memory_order_relaxed);
  }

  /// Index of the pool worker running the current thread: 0 for the
  /// caller's thread (also the serial path), 1..N-1 for spawned workers.
  /// Meaningful inside a sweep's per-index call; callers use it to
  /// attribute their own analyze/merge phases to the right worker.
  [[nodiscard]] static std::size_t current_worker();

 private:
  // Lanes are padded to this boundary so two workers' hot lanes never
  // bounce one line; 64 covers x86/ARM, 128 covers Apple M-series.
  static constexpr std::size_t kLaneAlign = 128;

  /// Splice per-worker (index, result) runs into one submission-order
  /// vector. Each run is index-ascending by construction (chunks are
  /// claimed off a monotone counter), so this is a k-way merge: every
  /// element moves exactly once, serially, on the caller's thread.
  template <typename R, typename Runs>
  [[nodiscard]] static std::vector<R> splice_runs(std::size_t count, Runs& runs) {
    std::vector<R> out;
    out.reserve(count);
    std::vector<std::size_t> cursor(runs.size(), 0);
    for (std::size_t want = 0; want < count; ++want) {
      for (std::size_t s = 0; s < runs.size(); ++s) {
        auto& items = runs[s];
        const std::size_t at = cursor[s];
        if (at < items.size() && items[at].first == want) {
          out.push_back(std::move(items[at].second));
          ++cursor[s];
          break;
        }
      }
    }
    return out;
  }

  std::size_t jobs_;
  SweepProfiler* profiler_{nullptr};
  /// Dropped-error count of the most recent sweep (see errors_dropped()).
  /// Mutable: sweeps are logically const (the pool has no sweep state), but
  /// diagnosability of multi-failure sweeps needs this one counter.
  mutable std::atomic<std::size_t> errors_dropped_{0};
};

}  // namespace vstream::runner
