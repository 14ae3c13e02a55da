// Streamed multi-world topology sweeps: many shared-bottleneck worlds run
// across the ParallelSweep pool, each folding into a per-worker partial the
// moment it finishes — the topology counterpart of run_sessions_streamed,
// and the same one `fold_worlds` step (runner/session_sweep.hpp).
//
// A single `run_topology` world is O(peak concurrency) in memory, so one
// long world can carry any number of arrivals; sharding buys cores instead:
// K independent worlds of N sessions each, identical in distribution (same
// template, same arrival law, seeds forked per shard). Window statistics
// pool exactly across shards — WindowStats carries count/sum/sum_sq, so the
// pooled mean and variance of R(t) are the same numbers a single giant
// world's window series would produce, up to FP associativity of the final
// merge.
//
// Determinism matches DESIGN.md §13: fold_worlds runs every world with a
// sweep-owned StateDigest; (index, digest, outcome) words XOR into a
// SweepDigest that is bit-identical for any worker count or contiguous
// sharding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "runner/parallel_sweep.hpp"
#include "runner/session_sweep.hpp"
#include "streaming/topology.hpp"

namespace vstream::runner {

/// O(1)-memory aggregate of many TopologyResults: the pooled result itself
/// (TopologyResult::merge — counters sum, WindowStats pool to the exact
/// cross-shard mean/variance, and its means and measured_model_params() read
/// over the whole sweep), plus the world count and the SweepDigest, the
/// partition-independent fingerprint of the whole sweep.
struct TopologyAccumulator : streaming::TopologyResult {
  std::uint64_t worlds{0};
  SweepDigest digest;

  /// Fold one finished world under its global submission index. The
  /// config is not read: the result carries its own arrival window.
  void add(std::size_t index, const streaming::TopologyConfig& /*config*/,
           const streaming::TopologyResult& result, const streaming::RunFingerprint& world) {
    ++worlds;
    TopologyResult::merge(result);
    digest.add(index, world);
  }

  /// Combine another partial (worker lane) into this one.
  void merge(const TopologyAccumulator& other) {
    worlds += other.worlds;
    TopologyResult::merge(other);
    digest.merge(other.digest);
  }
};

/// Run `count` generated worlds on `pool`, folding each result as it
/// finishes — O(workers) memory however large the sweep. `make(g)` is
/// called with each global index g in [first, first + count) and returns
/// that world's config. Digest, arena and error handling are fold_worlds'.
[[nodiscard]] TopologyAccumulator run_topologies_streamed(
    const ParallelSweep& pool, std::size_t first, std::size_t count,
    const std::function<streaming::TopologyConfig(std::size_t)>& make);

}  // namespace vstream::runner
