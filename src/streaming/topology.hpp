// Multi-session topologies: N viewers in one simulated world, contending
// for a shared bottleneck (Section 6's aggregate regime).
//
// `run_session` gives every session a private world — the right tool for
// Table 1's per-session strategy signatures, but structurally unable to
// say anything about *aggregate* traffic: Eq. 3/4, the dimensioning rule,
// and §6.2's interruption waste are all statements about superposed
// sessions sharing a link. `run_topology` builds one shared-bottleneck
// world on the same `World` shell as `run_session` (streaming/world.hpp)
// and instantiates many `SessionInstance`s in it, each on its own access
// leg behind a `net::SharedBottleneck`, with arrivals driven by a
// deterministic arrival process (Poisson churn, flash crowds, diurnal
// load) from forked `sim::Rng` streams. The world samples every session's
// application-delivered video bytes into fixed windows — the empirical
// R(t) that the closed forms in model/aggregate.hpp predict.
//
// Determinism: everything derives from `TopologyConfig::seed` through
// tagged forks in a fixed order, so twin runs fingerprint identically —
// including across `--jobs` when sharded with
// runner::run_topologies_streamed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "model/aggregate.hpp"
#include "net/bottleneck.hpp"
#include "net/cross_traffic.hpp"
#include "net/dynamics.hpp"
#include "stats/windowed_rate.hpp"
#include "streaming/session.hpp"
#include "streaming/world.hpp"

namespace vstream::streaming {

/// Parametric arrival processes. Kept as data (not a std::function) so a
/// schedule is comparable, serialisable and — crucially — deterministic:
/// `generate_arrivals` is the only interpreter.
struct ArrivalSchedule {
  enum class Kind : std::uint8_t {
    kImmediate,   ///< every session arrives at `start_s`
    kPoisson,     ///< homogeneous Poisson churn at `rate_per_s` (the model's lambda)
    kFlashCrowd,  ///< all sessions land uniformly in [start_s, start_s + spread_s)
    kDiurnal,     ///< Poisson with sinusoidal intensity (thinning)
  };

  Kind kind{Kind::kImmediate};
  double start_s{0.0};
  double rate_per_s{1.0};   ///< kPoisson / kDiurnal base intensity
  double spread_s{1.0};     ///< kFlashCrowd arrival window
  double period_s{600.0};   ///< kDiurnal cycle length (sim-scale "day")
  double depth{0.5};        ///< kDiurnal modulation: lambda(t) in rate*(1 +/- depth)

  void validate() const;
};

/// Deterministic arrival times for up to `count` sessions within
/// [0, horizon_s]. Poisson/diurnal stop at whichever of count/horizon
/// comes first, so the realized session count is itself part of the
/// arrival statistics.
[[nodiscard]] std::vector<double> generate_arrivals(const ArrivalSchedule& schedule,
                                                    std::size_t count, double horizon_s,
                                                    sim::Rng& rng);

/// A viewer population: how sessions arrive, plus per-session variation
/// (encoding rate, duration, watch fraction) drawn from the session's own
/// rng stream. Built fluently by `WorkloadBuilder`
/// (streaming/topology_builder.hpp).
struct Workload {
  ArrivalSchedule arrivals;
  /// Invoked once per session before it starts: (session index, session
  /// rng, config to mutate). Draws must come from the passed rng only.
  std::function<void(std::size_t, sim::Rng&, SessionConfig&)> customize;
};

struct TopologyConfig {
  /// Per-session template; `validate()` rejects its private-path-only
  /// knobs, and `run_topology` re-checks every customized session the same
  /// way. Its capture_duration_s is ignored: the horizon governs the world.
  SessionConfig session;
  /// Maximum sessions to admit (arrival processes may produce fewer within
  /// the horizon).
  std::size_t sessions{1};
  /// How sessions arrive and how each one varies from the template.
  Workload workload;
  net::SharedBottleneck::Config bottleneck;
  /// Fault injection on the shared link (absolute world times).
  net::ImpairmentSchedule bottleneck_impairments;
  /// Competing non-video load injected straight into the bottleneck queue;
  /// its connection id is forced to SharedBottleneck::kForeignId.
  std::optional<net::CrossTraffic::Config> cross_traffic;
  double horizon_s{60.0};        ///< world end (every session hard-stops here)
  double sample_window_s{1.0};   ///< R(t) averaging window
  double warmup_s{0.0};          ///< discard R(t) before this (arrival ramp-up)
  std::uint64_t seed{1};
  /// World digest (event order + folded outcome); see fingerprint_topology.
  check::StateDigest* digest{nullptr};
  /// Per-world allocator, as in SessionConfig::arena.
  sim::ArenaResource* arena{nullptr};

  void validate() const;

  /// Span of the arrival process, [workload.arrivals.start_s, horizon_s]
  /// (0 when the process starts after the horizon): the basis of the
  /// realized arrival rate.
  [[nodiscard]] double arrival_window_s() const {
    return std::max(horizon_s - workload.arrivals.start_s, 0.0);
  }
};

struct TopologyResult {
  std::size_t sessions_started{0};
  std::size_t sessions_finished{0};     ///< playback ran to the end
  std::size_t sessions_interrupted{0};  ///< viewer abandoned (watch_fraction)
  std::size_t sessions_active_at_end{0};
  /// High-water count of admitted sessions whose machinery was still held
  /// (not yet reclaimed): what bounds the world's memory. Tracks the peak
  /// concurrency, plus sessions that quiesced but have not drained yet.
  std::size_t peak_live_sessions{0};
  /// Sessions still held at the horizon: sessions_active_at_end plus the
  /// quiesced ones whose transport never drained (an abandoned viewer whose
  /// connection waits on a closed receive window keeps probing forever).
  std::size_t live_sessions_at_end{0};
  std::size_t connections{0};  ///< video-CDN (host 0) TCP connections across all sessions
  std::uint64_t bytes_downloaded{0};  ///< application bytes read by all clients
  /// §6.2: bytes downloaded but never played by interrupted viewers.
  std::uint64_t wasted_bytes{0};
  /// Video payload that crossed the bottleneck — the wire view, so
  /// retransmitted bytes count twice. R(t) samples the application
  /// delivery stream instead (`aggregate`), which the transport dedupes.
  std::uint64_t video_payload_bytes{0};
  std::uint64_t cross_traffic_bytes{0};       ///< foreign payload delivered
  std::uint64_t bottleneck_wire_bytes{0};     ///< everything, headers included
  std::uint64_t bottleneck_dropped_queue{0};  ///< endogenous congestion drops
  std::uint64_t bottleneck_dropped_loss{0};
  /// Per-window aggregate video rate R(t) after warmup, in bits/s.
  stats::WindowStats aggregate;
  /// Concurrent sessions sampled once per window after warmup.
  stats::WindowStats concurrency;
  // Measured model inputs, summed over started sessions (divide by
  // sessions_started / goodput_samples for the means):
  double sum_encoding_bps{0.0};  ///< e: true (selected) encoding rates
  double sum_duration_s{0.0};    ///< L: configured video durations
  double sum_goodput_bps{0.0};   ///< G: per-session transfer goodput
  std::size_t goodput_samples{0};
  /// TopologyConfig::arrival_window_s(), summed over merged worlds: the
  /// basis of the realized arrival rate.
  double arrival_window_s{0.0};
  std::uint64_t sim_events{0};
  std::size_t sim_max_events_pending{0};

  /// Pool another world's (or partial sweep's) result into this one:
  /// counts and sums add, `peak_live_sessions` and `sim_max_events_pending`
  /// keep the max, and the window statistics pool exactly.
  void merge(const TopologyResult& other);

  /// lambda-hat = sessions_started / arrival_window_s (0 for an empty window).
  [[nodiscard]] double realized_arrival_rate_per_s() const {
    return arrival_window_s > 0.0 ? static_cast<double>(sessions_started) / arrival_window_s
                                  : 0.0;
  }

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

  /// The measured inputs of Eq. 3/4, ready for the closed forms — the
  /// empirical-vs-analytical showdown compares
  /// `model::mean_aggregate_rate_bps(measured_model_params())` against
  /// `mean_aggregate_bps()` (and likewise the variances).
  [[nodiscard]] model::AggregateParams measured_model_params() const {
    return model::AggregateParams{.lambda_per_s = realized_arrival_rate_per_s(),
                                  .mean_encoding_bps = mean_encoding_bps(),
                                  .mean_duration_s = mean_duration_s(),
                                  .mean_download_rate_bps = mean_goodput_bps()};
  }
};

/// Run one multi-session world to its horizon. Memory is O(peak
/// concurrency): a session's leg, fabric and application objects are freed
/// once it has quiesced and drained (checked on the window clock), leaving
/// a record of under 64 bytes per arrival. On the end-to-end benchmark's
/// churn_world (~7.5k Poisson arrivals, 200 concurrent) that is ~8 kB of
/// RSS per concurrent viewer instead of ~450 kB when every arrival was
/// held to the horizon. A session that never drains (an abandoned viewer
/// whose connection waits on a shut receive window) stays held; see
/// TopologyResult::live_sessions_at_end. Shard long sweeps with
/// runner::run_topologies_streamed to use more cores.
[[nodiscard]] TopologyResult run_topology(const TopologyConfig& config);

/// Fold the headline outcome into `digest` after the run — the topology
/// counterpart of `fold_outcome` (scenarios.hpp), shared by the sweep
/// digest so a divergence the event stream missed still flips the value.
void fold_topology_outcome(check::StateDigest& digest, const TopologyResult& result);

/// `bench/e2e/workloads.cpp` still names the topology fingerprint; there
/// is one fingerprint type.
using TopologyFingerprint = RunFingerprint;

/// Run with a digest attached and fingerprint the result (event order +
/// folded outcome) through run_fingerprinted. Twin configs must produce
/// equal fingerprints.
[[nodiscard]] RunFingerprint fingerprint_topology(TopologyConfig config);

}  // namespace vstream::streaming
