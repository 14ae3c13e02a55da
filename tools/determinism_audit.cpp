// Determinism audit: run every canonical and fault-injection scenario twice
// with the same seed and fail loudly if the twin state digests diverge.
//
// The second twin (and every parallel-audit run) is armed with a trace sink,
// which switches on the span layer and every probe. Tracing is digest-
// neutral by contract — spans read sim-time, never schedule events or touch
// RNG — so an armed run must fingerprint identically to an unobserved one;
// this audit is what enforces that.
//
// The digest folds the simulator's event dispatch order and per-segment TCP
// state snapshots (see check/digest.hpp), so it catches the nondeterminism
// classes sanitizers miss: unordered-container iteration feeding the event
// queue, uninitialized reads steering a branch, address-dependent ordering.
//
//   ./build/tools/determinism_audit                # full 180 s scenarios
//   ./build/tools/determinism_audit --seconds 30   # shorter capture window
//   ./build/tools/determinism_audit --canary       # prove the audit detects
//                                                  # seeded unordered-map order
//   ./build/tools/determinism_audit --jobs 4       # serial vs ParallelSweep:
//                                                  # per-session digests must
//                                                  # match bit-for-bit
//   ./build/tools/determinism_audit --shards 3     # streamed sweep digest:
//                                                  # serial == parallel ==
//                                                  # sharded merge, bit-equal
//   ./build/tools/determinism_audit --topology     # multi-session worlds:
//                                                  # twin topologies bit-equal
//                                                  # across every arrival
//                                                  # process, and the sharded
//                                                  # topology sweep digest is
//                                                  # worker-count invariant
//
// Every scenario and topology-world line carries the digest and the run's
// `words=… events=… bytes=…` counts. The counts do not depend on how the
// digest folds its words, so they compare two builds whose fold differs.
//
// Exit status: 0 when every twin run agrees (and the canary diverges as
// designed); 1 on any divergence (or a canary the audit failed to catch);
// 2 on a usage error, including a --seconds that is not a positive number
// or a --jobs/--shards that is not a whole number of at least one.
#include <cstdio>
#include <cstring>
#include <iterator>
#include <vector>

#include <algorithm>
#include <array>
#include <string>

#include "obs/trace.hpp"
#include "runner/cli.hpp"
#include "runner/parallel_sweep.hpp"
#include "runner/session_sweep.hpp"
#include "runner/topology_sweep.hpp"
#include "sim/determinism_canary.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/topology_builder.hpp"

namespace {

/// The fingerprint apart from its digest value: what ran, as counts. Twin
/// runs must agree on these too, and they stay comparable across a change
/// to the digest's fold.
std::string counts(const vstream::streaming::RunFingerprint& print) {
  char text[96];
  std::snprintf(text, sizeof text, "words=%llu events=%llu bytes=%llu",
                static_cast<unsigned long long>(print.words_mixed),
                static_cast<unsigned long long>(print.sim_events),
                static_cast<unsigned long long>(print.bytes_downloaded));
  return text;
}

/// The audited catalog: every canonical Table-1 scenario plus the fault
/// catalog (blackouts, burst-loss windows, rate halvings, link flaps). The
/// fault runs are the ones most likely to smoke out nondeterminism — retry
/// timers, impairment transitions, and loss overlays all reschedule events —
/// so they are audited with exactly the same twin-run bar as healthy runs.
std::vector<vstream::streaming::NamedScenario> audited_catalog(double seconds) {
  auto scenarios = vstream::streaming::canonical_scenarios(seconds);
  auto faults = vstream::streaming::fault_scenarios(seconds);
  scenarios.insert(scenarios.end(), std::make_move_iterator(faults.begin()),
                   std::make_move_iterator(faults.end()));
  return scenarios;
}

int run_canary() {
  // Same nonce twice -> identical digests; different nonce -> different
  // event order, which the digest must expose.
  const std::uint64_t twin_a = vstream::sim::determinism_canary_digest(1);
  const std::uint64_t twin_b = vstream::sim::determinism_canary_digest(1);
  const std::uint64_t other = vstream::sim::determinism_canary_digest(2);
  std::printf("canary twin digests   : %016llx / %016llx\n",
              static_cast<unsigned long long>(twin_a), static_cast<unsigned long long>(twin_b));
  std::printf("canary reseeded digest: %016llx\n", static_cast<unsigned long long>(other));
  if (twin_a != twin_b) {
    std::printf("FAIL: canary twin runs diverged — the harness itself is nondeterministic\n");
    return 1;
  }
  if (other == twin_a) {
    std::printf("FAIL: reseeded canary was NOT caught — digest is blind to event order\n");
    return 1;
  }
  std::printf("ok: seeded unordered-map iteration order is caught by the digest\n");
  return 0;
}

/// Parallel-engine audit: every catalog scenario runs once serially and once
/// under a ParallelSweep with `jobs` workers. The per-session worlds are
/// shared-nothing, so the fingerprints (event-order digest + TCP state
/// snapshots + headline results) must match bit-for-bit; any divergence
/// means threading leaked into a simulation path.
int run_parallel_audit(double seconds, std::size_t jobs) {
  const auto scenarios = audited_catalog(seconds);
  std::vector<vstream::streaming::RunFingerprint> serial;
  serial.reserve(scenarios.size());
  for (const auto& scenario : scenarios) {
    serial.push_back(vstream::streaming::fingerprint_session(scenario.config));
  }
  const vstream::runner::ParallelSweep pool{jobs};
  const auto parallel = pool.map<vstream::streaming::RunFingerprint>(
      scenarios.size(), [&scenarios](std::size_t i) {
        // Each parallel run is armed with its own bounded sink: the span
        // layer and every probe fire, and the fingerprint must still match
        // the unobserved serial run (tracing is digest-neutral).
        vstream::obs::RingBufferSink sink{4096};
        return vstream::streaming::fingerprint_session(scenarios[i].config, &sink);
      });
  int divergent = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const bool same = serial[i] == parallel[i];
    std::printf("%-40s serial=%016llx parallel=%016llx %s\n", scenarios[i].name.c_str(),
                static_cast<unsigned long long>(serial[i].digest),
                static_cast<unsigned long long>(parallel[i].digest), same ? "ok" : "DIVERGED");
    if (!same) ++divergent;
  }
  std::printf("%zu scenarios under %zu workers, %d divergent\n", scenarios.size(), pool.jobs(),
              divergent);
  return divergent == 0 ? 0 : 1;
}

/// Run worlds [0, n) of `make` through the streamed `sweep` three ways:
/// serially, on 4 workers, and as `shards` contiguous slices on 2 workers
/// merged back. The partition-invariant digest must agree across all three.
template <typename Sweep, typename Make>
auto serial_parallel_sharded(Sweep sweep, std::size_t n, std::size_t shards, const Make& make) {
  using vstream::runner::ParallelSweep;
  auto serial = sweep(ParallelSweep{1}, 0, n, make);
  auto parallel = sweep(ParallelSweep{4}, 0, n, make);
  decltype(serial) merged;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t first = n * s / shards;
    merged.merge(sweep(ParallelSweep{2}, first, n * (s + 1) / shards - first, make));
  }
  return std::array{serial, parallel, merged};
}

/// One line per serial_parallel_sharded run: its digest and world count.
template <typename Acc>
void print_three_ways(const std::array<Acc, 3>& runs, const char* what, const char* unit,
                      std::size_t shards) {
  static constexpr const char* kLabels[] = {"serial  ", "parallel", "sharded "};
  for (std::size_t k = 0; k < runs.size(); ++k) {
    std::printf("%s %s %016llx over %llu %s", kLabels[k], what,
                static_cast<unsigned long long>(runs[k].digest.combined),
                static_cast<unsigned long long>(runs[k].digest.sessions), unit);
    if (k == 2) std::printf(" (%zu shards)", shards);
    std::printf("\n");
  }
}

/// Sharded-sweep audit: the same catalog run through the streamed sweep
/// (runner/session_sweep.hpp) three ways — serial, parallel, and split into
/// `shards` contiguous slices merged back together. The order-independent
/// sweep digest must be bit-identical across all three: that equality is
/// what lets the capacity planner fan a million sessions across processes
/// and still prove the merged run is the run it claims to be.
int run_shard_audit(double seconds, std::size_t shards) {
  const auto scenarios = audited_catalog(seconds);
  const std::size_t n = scenarios.size();
  const auto make = [&scenarios](std::size_t g) { return scenarios[g].config; };

  const auto runs =
      serial_parallel_sharded(vstream::runner::run_sessions_streamed, n, shards, make);
  const auto& [serial, parallel, merged] = runs;
  print_three_ways(runs, "digest", "sessions", shards);
  const bool ok = serial.digest == parallel.digest && serial.digest == merged.digest &&
                  serial.sessions == merged.sessions &&
                  serial.bytes_downloaded == merged.bytes_downloaded &&
                  serial.sim_events == merged.sim_events;
  std::printf("%zu scenarios: serial == parallel == sharded merge: %s\n", n,
              ok ? "ok" : "DIVERGED");
  return ok ? 0 : 1;
}

/// One named multi-session world for the topology audit.
struct NamedTopology {
  std::string name;
  vstream::streaming::TopologyConfig config;
};

/// Topology audit catalog: every arrival process, plus the world-level
/// machinery most likely to smoke out nondeterminism — cross-traffic
/// injection, shared-link impairments, random loss — each of which
/// reschedules events against dozens of contending sessions.
std::vector<NamedTopology> topology_catalog(double seconds) {
  using namespace vstream;
  const double horizon = std::clamp(seconds, 10.0, 60.0);
  const auto base = [horizon](std::uint64_t seed) {
    video::VideoMeta meta;
    meta.id = "audit";
    meta.duration_s = 8.0;
    meta.encoding_bps = 100e3;
    meta.container = video::Container::kFlashHd;
    streaming::TopologyBuilder b;
    b.container(video::Container::kFlashHd)
        .vantage(net::Vantage::kResidence)
        .video(meta)
        .sessions(48)
        .bottleneck_rate_bps(30e6)
        .horizon_s(horizon)
        .sample_window_s(0.1)
        .seed(seed);
    return b;
  };
  const auto vary = [](std::size_t, sim::Rng& rng, streaming::SessionConfig& cfg) {
    cfg.video.encoding_bps = rng.uniform(60e3, 140e3);
    cfg.video.duration_s = rng.uniform(4.0, 10.0);
  };

  std::vector<NamedTopology> catalog;
  catalog.push_back({"topology/poisson-churn",
                     base(401)
                         .workload(streaming::WorkloadBuilder{}.poisson(4.0).customize(vary).build())
                         .build()});
  catalog.push_back({"topology/flash-crowd",
                     base(402)
                         .workload(streaming::WorkloadBuilder{}
                                       .flash_crowd(/*spread_s=*/3.0, /*start_s=*/1.0)
                                       .customize(vary)
                                       .build())
                         .build()});
  catalog.push_back({"topology/diurnal",
                     base(403)
                         .workload(streaming::WorkloadBuilder{}
                                       .diurnal(/*rate_per_s=*/4.0, /*period_s=*/20.0)
                                       .customize(vary)
                                       .build())
                         .build()});
  {
    net::CrossTraffic::Config cross;
    cross.mean_rate_bps = 8e6;
    catalog.push_back({"topology/cross-traffic",
                       base(404)
                           .workload(streaming::WorkloadBuilder{}.poisson(4.0).customize(vary).build())
                           .cross_traffic(cross)
                           .build()});
  }
  catalog.push_back({"topology/bottleneck-loss",
                     base(405)
                         .workload(streaming::WorkloadBuilder{}.poisson(4.0).customize(vary).build())
                         .bottleneck_loss(/*rate=*/0.005, /*burst_len=*/2.0)
                         .build()});
  return catalog;
}

/// Topology audit: twin fingerprints per catalog world (same seed ->
/// bit-equal; reseeded -> must move), then the streamed topology sweep run
/// serially, pooled, and as a 3-shard merge — all three sweep digests must
/// agree bit-for-bit, the same bar run_shard_audit holds session sweeps to.
int run_topology_audit(double seconds) {
  using namespace vstream;
  const auto catalog = topology_catalog(seconds);
  int divergent = 0;
  for (const auto& entry : catalog) {
    const auto first = streaming::fingerprint_topology(entry.config);
    const auto second = streaming::fingerprint_topology(entry.config);
    auto reseeded_cfg = entry.config;
    reseeded_cfg.seed += 1;
    const auto reseeded = streaming::fingerprint_topology(reseeded_cfg);
    const bool same = first == second;
    const bool moved = reseeded.digest != first.digest;
    std::printf("%-40s %016llx %s twin:%s reseed:%s\n", entry.name.c_str(),
                static_cast<unsigned long long>(first.digest), counts(first).c_str(),
                same ? "ok" : "DIVERGED", moved ? "moved" : "STUCK");
    if (!same || !moved) ++divergent;
  }

  // Streamed sweep: 12 worlds derived from the catalog by reseeding.
  const auto make = [&catalog](std::size_t g) {
    auto cfg = catalog[g % catalog.size()].config;
    cfg.seed += 1000 + g;
    return cfg;
  };
  constexpr std::size_t kWorlds = 12;
  constexpr std::size_t kShards = 3;
  const auto runs =
      serial_parallel_sharded(runner::run_topologies_streamed, kWorlds, kShards, make);
  const auto& [serial, parallel, merged] = runs;
  print_three_ways(runs, "sweep digest", "worlds", kShards);
  const bool sweep_ok = serial.digest == parallel.digest && serial.digest == merged.digest &&
                        serial.sessions_started == merged.sessions_started &&
                        serial.bytes_downloaded == merged.bytes_downloaded &&
                        serial.sim_events == merged.sim_events;
  if (!sweep_ok) ++divergent;
  std::printf("%zu topology worlds + %zu-world sweep, %d divergent: %s\n", catalog.size(),
              kWorlds, divergent, divergent == 0 ? "ok" : "DIVERGED");
  return divergent == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: determinism_audit [--seconds N] [--canary] [--topology] "
               "[--jobs N] [--shards N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using vstream::runner::parse_positive;
  double seconds = 180.0;
  bool canary = false;
  bool topology = false;
  std::size_t jobs = 0;
  std::size_t shards = 0;
  for (int i = 1; i < argc; ++i) {
    bool ok = true;
    if (std::strcmp(argv[i], "--canary") == 0) {
      canary = true;
    } else if (std::strcmp(argv[i], "--topology") == 0) {
      topology = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      ok = parse_positive(argv[++i], seconds);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      ok = parse_positive(argv[++i], jobs);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      ok = parse_positive(argv[++i], shards);
    } else {
      return usage();
    }
    if (!ok) {
      std::fprintf(stderr, "determinism_audit: bad value '%s' for %s\n", argv[i], argv[i - 1]);
      return usage();
    }
  }
  if (canary) return run_canary();
  if (topology) return run_topology_audit(seconds);
  if (shards > 0) return run_shard_audit(seconds, shards);
  if (jobs > 0) return run_parallel_audit(seconds, jobs);

  const auto scenarios = audited_catalog(seconds);
  int divergent = 0;
  for (const auto& scenario : scenarios) {
    const auto first = vstream::streaming::fingerprint_session(scenario.config);
    // Armed twin: spans and probes on, digest must not move.
    vstream::obs::RingBufferSink sink{4096};
    const auto second = vstream::streaming::fingerprint_session(scenario.config, &sink);
    const bool same = first == second;
    std::printf("%-40s %016llx %s %s\n", scenario.name.c_str(),
                static_cast<unsigned long long>(first.digest), counts(first).c_str(),
                same ? "ok" : "DIVERGED");
    if (!same) {
      ++divergent;
      std::printf("  run 2: digest=%016llx %s\n", static_cast<unsigned long long>(second.digest),
                  counts(second).c_str());
    }
  }
  std::printf("%zu scenarios, %d divergent\n", scenarios.size(), divergent);
  return divergent == 0 ? 0 : 1;
}
