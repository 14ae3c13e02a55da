// Parallel capture classification: the demux lanes on a worker pool.
//
// `classify_capture` fans the connection_demux lanes across the pool and
// merges them, and is byte-identical to `classify_capture_serial` for every
// pool width: lane membership is `connection_id % lanes` with `lanes` fixed
// by the *request* (not the pool's scheduling), each lane only reads the
// shared immutable mapping, and the merge splices rows in connection order.
// A capture the merge finds mirrored is classified again with directions
// flipped, exactly as the serial path does.
//
// The pool is a template parameter rather than a `runner::ParallelSweep`
// so this header can live in the analysis layer without the analysis
// library linking the runner (the dependency arrow goes runner -> analysis,
// not back). Any pool with `jobs()` and `for_each_chunk(count, chunk, fn)`
// fits; `ParallelSweep` is the intended one and the only one the tools
// instantiate.
//
// Profiling: pass a `SweepProfiler` sized for the pool and the lanes land
// as kRun on the worker that ran them and the merge as kMerge on worker 0,
// giving the classifier CLI the same per-worker utilization table the sweep
// harness publishes.
#pragma once

#include <cstddef>
#include <exception>
#include <utility>
#include <vector>

#include "analysis/connection_demux.hpp"
#include "runner/sweep_profiler.hpp"

namespace vstream::analysis {

template <typename Pool>
[[nodiscard]] CaptureClassification classify_capture(const capture::MmapPcapReader& reader,
                                                     const Pool& pool,
                                                     const ReportOptions& options = {},
                                                     runner::SweepProfiler* profiler = nullptr) {
  const std::size_t lanes = pool.jobs() >= 1 ? pool.jobs() : 1;
  const auto classify = [&](bool flip) {
    std::vector<LaneResult> results(lanes);
    std::vector<std::exception_ptr> errors(lanes);
    // Chunks of one: each lane is its own range.
    pool.for_each_chunk(lanes, 1, [&](std::size_t lane, std::size_t, std::size_t worker) {
      const runner::SweepProfiler::Scope scope{profiler, worker, runner::SweepPhase::kRun};
      try {
        results[lane] = classify_lane(reader, lanes, lane, flip, options);
      } catch (...) {
        errors[lane] = std::current_exception();
      }
    });
    // Every lane walks the whole file, so a corrupt record fails every lane
    // alike: rethrow one lane's error untouched, the serial path's message,
    // rather than the pool's aggregate of all of them.
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    const runner::SweepProfiler::Scope scope{profiler, 0, runner::SweepPhase::kMerge};
    return merge_lanes(std::move(results));
  };
  const CaptureClassification as_written = classify(false);
  return as_written.direction_flipped ? classify(true) : as_written;
}

}  // namespace vstream::analysis
