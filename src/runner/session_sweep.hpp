// Streamed session sweeps: results fold into per-worker accumulators as
// each world finishes, so a million-session run holds a few hundred bytes
// of aggregate per worker instead of a million SessionResults.
//
// This extends the PR 4 O(1)-memory pipeline one level up: within a session
// `StreamingReportBuilder` keeps memory constant in packets; across a sweep
// `SweepAccumulator` keeps memory constant in sessions. The sweep is one
// `ParallelSweep::fold`: each worker's lane holds a recycled world arena and
// a partial accumulator, and the partials merge serially on the caller's
// thread after the pool joins. `fold_worlds` below is the per-world step,
// shared with the topology sweep (runner/topology_sweep.hpp), so both world
// kinds are digested, folded and failed the same way.
//
// Determinism story (DESIGN.md §13): floating-point partial sums depend on
// which worker ran which session, so they are reproducible only up to FP
// associativity. The *digest* is exact: every session mixes
// (index, world digest, outcome) through FNV-1a into one 64-bit word, and
// the sweep combines those words with XOR — a commutative, associative,
// partition-independent fold. Serial, parallel, and process-sharded runs of
// the same config generator therefore produce bit-identical sweep digests,
// which is what `determinism_audit --shards` and the capacity planner's
// digest-checked shard merge enforce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "runner/parallel_sweep.hpp"
#include "sim/arena.hpp"
#include "streaming/session.hpp"
#include "streaming/world.hpp"

namespace vstream::runner {

/// Order-independent sweep digest: XOR of per-session FNV-1a words keyed by
/// global session index. Equal iff two runs executed the same session set
/// with identical per-session outcomes — regardless of worker count,
/// scheduling, or process sharding. (XOR would be blind to one session
/// repeated twice; the paired session count catches exactly that.)
struct SweepDigest {
  std::uint64_t combined{0};
  std::uint64_t sessions{0};

  /// Fold one finished session: its global index, its world digest value
  /// and words-mixed count, hashed together into one word.
  void add(std::size_t index, const streaming::RunFingerprint& world);

  void merge(const SweepDigest& other) {
    combined ^= other.combined;
    sessions += other.sessions;
  }

  friend bool operator==(const SweepDigest&, const SweepDigest&) = default;
};

/// Sweep-level aggregate of session outcomes: everything the capacity
/// planner needs from N sessions, in O(1) memory. Commutative integer
/// counters plus FP sums (see file comment for the FP caveat) and the exact
/// sweep digest.
struct SweepAccumulator {
  std::uint64_t sessions{0};
  std::uint64_t bytes_downloaded{0};
  std::uint64_t sim_events{0};
  std::uint64_t connections{0};
  std::uint64_t rebuffer_count{0};
  std::uint64_t fetch_retries{0};
  std::uint64_t interrupted_sessions{0};
  std::size_t max_events_pending{0};  ///< max across sessions, not sum
  double download_rate_bps_sum{0.0};  ///< 8*bytes / capture_duration per session
  double encoding_bps_estimated_sum{0.0};
  double stall_time_s_sum{0.0};
  SweepDigest digest;

  /// Fold one finished session (called on the worker that ran it; each
  /// worker owns its accumulator outright). `index` is the session's global
  /// submission index — under process sharding, the index in the *full*
  /// sweep, so shard digests merge to the unsharded value.
  void add(std::size_t index, const streaming::SessionConfig& config,
           const streaming::SessionResult& result, const streaming::RunFingerprint& world);

  /// Combine another partial (worker lane or shard file) into this one.
  void merge(const SweepAccumulator& other);

  [[nodiscard]] double mean_download_rate_bps() const {
    return sessions > 0 ? download_rate_bps_sum / static_cast<double>(sessions) : 0.0;
  }
  [[nodiscard]] double mean_encoding_bps() const {
    return sessions > 0 ? encoding_bps_estimated_sum / static_cast<double>(sessions) : 0.0;
  }

  /// Serialize as a JSON object — the capacity planner's shard-out payload.
  /// `shard`/`shards` record the process-sharding coordinates (0/1 for an
  /// unsharded run); `first`/`count` the global index range covered.
  [[nodiscard]] std::string to_json(const std::string& name, std::size_t shard,
                                    std::size_t shards, std::size_t first,
                                    std::size_t count) const;

  /// Parse a shard-out JSON payload produced by to_json (strict on the
  /// fields it owns, tolerant of extras). Returns the parsed accumulator
  /// plus the shard coordinates through the out-params.
  static SweepAccumulator from_json_file(const std::string& path, std::size_t& shard,
                                         std::size_t& shards, std::size_t& first,
                                         std::size_t& count);
};

/// The per-world step of every streamed sweep, as one ParallelSweep::fold
/// over global indices [first, first + count). On the worker, right before
/// world g runs, `make(g)` builds its config; `run` runs it on the lane's
/// arena (unless the config brings one) and is fingerprinted the one way
/// every world is (streaming::run_fingerprinted, which replaces any digest
/// on the config). `Acc::add` folds the world into the lane under g.
template <typename Acc, typename Make, typename Run, typename FoldOutcome>
[[nodiscard]] Acc fold_worlds(const ParallelSweep& pool, std::size_t first, std::size_t count,
                              const Make& make, Run run, FoldOutcome fold_outcome) {
  return pool.fold<Acc>(count, [&](Acc& partial, std::size_t i, sim::ArenaResource& arena) {
    const std::size_t global = first + i;
    auto cfg = make(global);
    if (cfg.arena == nullptr) cfg.arena = &arena;
    const auto world = streaming::run_fingerprinted(cfg, run, fold_outcome);
    partial.add(global, cfg, world.result, world.print);
  });
}

/// Run `count` generated sessions on `pool`, folding every result into
/// per-worker accumulators the moment it exists — no result vector, no
/// submission-order staging, O(workers) memory however large `count` is.
/// `make(g)` is called with each global index g in [first, first + count)
/// and returns that session's config; configs are never stored. Digest,
/// arena and error handling are fold_worlds'.
[[nodiscard]] SweepAccumulator run_sessions_streamed(
    const ParallelSweep& pool, std::size_t first, std::size_t count,
    const std::function<streaming::SessionConfig(std::size_t)>& make);

}  // namespace vstream::runner
