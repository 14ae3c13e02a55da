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

/// O(1)-memory aggregate of many TopologyResults. Integer counters sum,
/// WindowStats pool (exact cross-shard mean/variance), and the SweepDigest
/// is the partition-independent fingerprint of the whole sweep.
struct TopologyAccumulator {
  std::uint64_t worlds{0};
  std::uint64_t sessions_started{0};
  std::uint64_t sessions_finished{0};
  std::uint64_t sessions_interrupted{0};
  std::uint64_t sessions_active_at_end{0};
  std::uint64_t connections{0};
  std::uint64_t bytes_downloaded{0};
  std::uint64_t wasted_bytes{0};
  std::uint64_t video_payload_bytes{0};
  std::uint64_t cross_traffic_bytes{0};
  std::uint64_t bottleneck_dropped_queue{0};
  std::uint64_t bottleneck_dropped_loss{0};
  std::uint64_t sim_events{0};
  std::size_t max_events_pending{0};  ///< max across worlds, not sum
  stats::WindowStats aggregate;       ///< pooled R(t) windows, all worlds
  stats::WindowStats concurrency;
  double sum_encoding_bps{0.0};
  double sum_duration_s{0.0};
  double sum_goodput_bps{0.0};
  std::uint64_t goodput_samples{0};
  double arrival_window_s_sum{0.0};  ///< Σ per-world arrival windows (lambda-hat basis)
  SweepDigest digest;

  /// Fold one finished world. `index` is the world's global submission
  /// index; its config contributes arrival_window_s() (the realized arrival
  /// rate pools as Σstarted / Σwindow).
  void add(std::size_t index, const streaming::TopologyConfig& config,
           const streaming::TopologyResult& result, const streaming::RunFingerprint& world);

  /// Combine another partial (worker lane) into this one.
  void merge(const TopologyAccumulator& other);

  [[nodiscard]] double mean_aggregate_bps() const { return aggregate.mean(); }
  [[nodiscard]] double variance_aggregate() const { return aggregate.variance(); }
  [[nodiscard]] double mean_encoding_bps() const {
    return sessions_started > 0 ? sum_encoding_bps / static_cast<double>(sessions_started) : 0.0;
  }
  [[nodiscard]] double mean_duration_s() const {
    return sessions_started > 0 ? sum_duration_s / static_cast<double>(sessions_started) : 0.0;
  }
  [[nodiscard]] double mean_goodput_bps() const {
    return goodput_samples > 0 ? sum_goodput_bps / static_cast<double>(goodput_samples) : 0.0;
  }
  [[nodiscard]] double realized_arrival_rate_per_s() const {
    return arrival_window_s_sum > 0.0
               ? static_cast<double>(sessions_started) / arrival_window_s_sum
               : 0.0;
  }

  /// Pooled measured inputs of Eq. 3/4 — identical in meaning to
  /// TopologyResult::measured_model_params, over the whole sweep.
  [[nodiscard]] model::AggregateParams measured_model_params() const {
    return model::AggregateParams{.lambda_per_s = realized_arrival_rate_per_s(),
                                  .mean_encoding_bps = mean_encoding_bps(),
                                  .mean_duration_s = mean_duration_s(),
                                  .mean_download_rate_bps = mean_goodput_bps()};
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
