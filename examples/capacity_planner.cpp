// capacity_planner — dimension a link for aggregate video-streaming traffic
// with the paper's Section 6 model.
//
// Given a session arrival rate and a video population, prints the required
// link capacity E[R] + alpha*sqrt(Var R) for several overprovisioning
// levels, validates the closed forms against the Monte-Carlo superposition,
// and quantifies the paper's headline what-if: a population-wide migration
// from Flash (k=1.25, B'=40 s) to an HTML5-style strategy, plus a shift to
// HD encoding rates.
//
// Usage: capacity_planner [--profile-out [path]] [--trace-out path]
//                         [lambda_per_s] [mean_rate_mbps] [mean_duration_s]
//        capacity_planner --capacity N [--seconds S] [--shards K --shard I]
//                         [--shard-out PATH]
//        capacity_planner --merge [--expect-digest HEX] shard.json...
//
// A value that does not parse whole (a negative or non-numeric count, a
// non-hex digest, a duration or rate that is not positive) exits 2 with the
// usage text. A --trace-out, --profile-out or --shard-out path that cannot
// be opened for writing exits 2 with a one-line diagnostic before any work
// runs, and so does an option that the chosen mode does not read (say
// --profile-out with --capacity), instead of being silently ignored.
//
// The empirical cross-check simulates shared-bottleneck topologies
// (streaming/topology_builder.hpp): Poisson churn onto one link, per-window
// R(t) measured against Eq 3/4 on the run's own measured inputs. Worlds
// fan out across cores (worker count from VSTREAM_JOBS, default hardware
// concurrency, 1 = serial). --trace-out still runs one representative
// single session in a private world, because topologies deliberately
// reject per-session trace sinks.
//
// --capacity runs N full packet-level sessions through the streamed sweep
// path (runner/session_sweep.hpp): results fold into per-worker
// accumulators as they finish, so memory stays bounded however large N is
// (the README's million-session run uses exactly this mode). --shards K
// --shard I runs the I-th contiguous slice of the N global session indices
// in this process; --shard-out writes the slice's aggregate + digest (plus
// this process's peak RSS) as JSON. --merge reads shard payloads back,
// verifies they tile [0, N) exactly, XOR-merges the digests — bit-equal to
// the unsharded digest by construction — and prints the combined aggregate;
// --expect-digest makes the merge fail loudly unless the combined digest
// matches (CI pins the sharded run against an unsharded twin this way).
//
// --profile-out arms a runner::SweepProfiler on the session pool and writes
// per-worker phase timings, task counts, and utilization to `path`
// (default BENCH_sweep_profile.json) — the same shape the bench harness
// publishes. --trace-out attaches a Chrome-trace sink to one representative
// private-world session, so its span timeline lands beside the capacity
// numbers.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "model/aggregate.hpp"
#include "model/interruption.hpp"
#include "obs/chrome_trace.hpp"
#include "runner/cli.hpp"
#include "runner/parallel_sweep.hpp"
#include "runner/session_sweep.hpp"
#include "runner/sweep_profiler.hpp"
#include "runner/topology_sweep.hpp"
#include "streaming/session_builder.hpp"

namespace {

using namespace vstream;

/// The capacity population: a deterministic function of the *global* session
/// index, so every shard generates exactly the sessions of its slice and
/// the sharded digest merges to the unsharded one. Mixes containers,
/// vantages and encoding rates the way the paper's Table 1 population does.
streaming::SessionConfig capacity_config(std::size_t g, double seconds) {
  static constexpr net::Vantage kVantages[] = {net::Vantage::kResearch, net::Vantage::kResidence,
                                               net::Vantage::kAcademic, net::Vantage::kHome};
  video::VideoMeta meta;
  meta.id = "capacity";
  meta.duration_s = 120.0;
  meta.encoding_bps = 1.0e6 + 2.5e5 * static_cast<double>(g % 5);
  meta.container = g % 2 == 0 ? video::Container::kFlash : video::Container::kHtml5;
  return streaming::SessionBuilder{}
      .vantage(kVantages[g % 4])
      .video(meta)
      .container(meta.container)
      .capture_duration_s(seconds)
      .seed(900000 + g)
      .store_trace(false)  // aggregates only: memory stays O(1) per session
      .build();
}

/// --flash-crowd N: one shared-bottleneck world absorbing N viewers inside
/// a few seconds — the topology API's stress shape (peak concurrency == N
/// by construction, since every video outlives the arrival window). Prints
/// the measured concurrency, the windowed R(t) against the closed forms on
/// measured inputs, and the peak RSS the world actually used (memory follows
/// peak concurrency, which here is every arrival).
int run_flash_crowd(std::size_t viewers, double bottleneck_gbps) {
  video::VideoMeta meta;
  meta.id = "crowd";
  meta.duration_s = 20.0;
  meta.encoding_bps = 75e3;
  meta.container = video::Container::kFlashHd;
  const auto result =
      streaming::TopologyBuilder{}
          .container(video::Container::kFlashHd)
          .vantage(net::Vantage::kResidence)
          .video(meta)
          .sessions(viewers)
          .workload(streaming::WorkloadBuilder{}
                        .flash_crowd(/*spread_s=*/5.0)
                        .customize([](std::size_t, sim::Rng& rng, streaming::SessionConfig& cfg) {
                          cfg.video.encoding_bps = rng.uniform(50e3, 100e3);
                          cfg.video.duration_s = rng.uniform(15.0, 25.0);
                        })
                        .build())
          .bottleneck_rate_bps(bottleneck_gbps * 1e9)
          .horizon_s(35.0)
          .warmup_s(2.0)
          .sample_window_s(0.1)
          .seed(31000)
          .run();
  std::printf("== flash crowd ==\n");
  std::printf("  %zu viewers in 5 s onto a %.1f Gbps link (residence access legs)\n",
              result.sessions_started, bottleneck_gbps);
  std::printf("  peak concurrency %.0f sessions (mean %.0f), %llu sim events\n",
              result.concurrency.peak, result.concurrency.mean(),
              static_cast<unsigned long long>(result.sim_events));
  std::printf("  aggregate R(t): mean %.1f Mbps, peak %.1f Mbps, sd %.1f Mbps\n",
              result.mean_aggregate_bps() / 1e6, result.aggregate.peak / 1e6,
              std::sqrt(result.variance_aggregate()) / 1e6);
  std::printf("  %llu finished, %zu active at end, %.2f GB downloaded, peak RSS %.1f MB\n",
              static_cast<unsigned long long>(result.sessions_finished),
              result.sessions_active_at_end,
              static_cast<double>(result.bytes_downloaded) / 1e9,
              static_cast<double>(runner::peak_rss_kb()) / 1024.0);
  return 0;
}

int run_capacity(std::size_t capacity, double seconds, std::size_t shards, std::size_t shard,
                 const std::string& shard_out) {
  if (shard >= shards) {
    std::fprintf(stderr, "capacity_planner: --shard %zu out of range for --shards %zu\n", shard,
                 shards);
    return 2;
  }
  // Contiguous slices: shard i owns [i*N/K, (i+1)*N/K) of the global range.
  const std::size_t first = capacity * shard / shards;
  const std::size_t count = capacity * (shard + 1) / shards - first;
  std::ofstream shard_file;
  if (!runner::open_output("capacity_planner", shard_out, shard_file)) return 2;

  runner::ParallelSweep pool;
  runner::SweepProfiler profiler{pool.jobs()};
  pool.set_profiler(&profiler);

  std::printf("== capacity run ==\n");
  std::printf("sessions %zu..%zu of %zu (shard %zu/%zu), %.2f s capture, %zu workers\n", first,
              first + count, capacity, shard, shards, seconds, pool.jobs());

  const runner::SweepAccumulator acc = runner::run_sessions_streamed(
      pool, first, count, [seconds](std::size_t g) { return capacity_config(g, seconds); });

  const auto summary = profiler.summary();
  // The million-session claim rests on this staying flat as --capacity
  // grows: the streamed sweep never materializes results.
  const std::size_t rss_kb = runner::peak_rss_kb();
  std::printf("  %llu sessions, %llu sim events, %.1f GB downloaded\n",
              static_cast<unsigned long long>(acc.sessions),
              static_cast<unsigned long long>(acc.sim_events),
              static_cast<double>(acc.bytes_downloaded) / 1e9);
  std::printf("  mean session download rate %.2f Mbps, %llu rebuffers, %llu retries\n",
              acc.mean_download_rate_bps() / 1e6,
              static_cast<unsigned long long>(acc.rebuffer_count),
              static_cast<unsigned long long>(acc.fetch_retries));
  std::printf("  sweep digest %016llx over %llu sessions\n",
              static_cast<unsigned long long>(acc.digest.combined),
              static_cast<unsigned long long>(acc.digest.sessions));
  if (summary.wall_s > 0.0) {
    std::printf("  %.1f s wall, %.0f sessions/s, %.0f%% utilization, peak RSS %.1f MB\n",
                summary.wall_s, static_cast<double>(acc.sessions) / summary.wall_s,
                summary.utilization() * 100.0, static_cast<double>(rss_kb) / 1024.0);
  }

  if (!shard_out.empty()) {
    // Add the RSS bound to the payload so the merge report can show the
    // worst shard without re-running anything.
    shard_file << acc.json_object("capacity", shard, shards, first, count)
                      .integer("peak_rss_kb", rss_kb)
                      .close()
               << "\n";
    std::printf("  shard payload written: %s\n", shard_out.c_str());
  }
  return 0;
}

int run_merge(const std::vector<std::string>& paths,
              const std::optional<std::uint64_t>& expect_digest) {
  if (paths.empty()) {
    std::fprintf(stderr, "capacity_planner: --merge needs at least one shard payload\n");
    return 2;
  }
  runner::SweepAccumulator merged;
  std::size_t shards_expected = 0;
  std::size_t covered_end = 0;  // shards must tile [0, N) in order after sort-by-first
  struct Slice {
    std::size_t shard, first, count;
  };
  std::vector<Slice> slices;
  for (const auto& path : paths) {
    std::size_t shard = 0;
    std::size_t shards = 0;
    std::size_t first = 0;
    std::size_t count = 0;
    runner::SweepAccumulator acc;
    try {
      acc = runner::SweepAccumulator::from_json_file(path, shard, shards, first, count);
    } catch (const std::runtime_error& e) {
      // A missing, unreadable or malformed payload is a usage error.
      std::fprintf(stderr, "capacity_planner: %s\n", e.what());
      return 2;
    }
    if (shards_expected == 0) shards_expected = shards;
    if (shards != shards_expected) {
      std::fprintf(stderr, "capacity_planner: %s declares %zu shards, expected %zu\n",
                   path.c_str(), shards, shards_expected);
      return 2;
    }
    slices.push_back(Slice{shard, first, count});
    merged.merge(acc);
  }
  if (slices.size() != shards_expected) {
    std::fprintf(stderr, "capacity_planner: merged %zu payloads but the run had %zu shards\n",
                 slices.size(), shards_expected);
    return 2;
  }
  // Coverage check: sort by range start, require an exact tiling from 0.
  std::sort(slices.begin(), slices.end(),
            [](const Slice& a, const Slice& b) { return a.first < b.first; });
  for (const Slice& s : slices) {
    if (s.first != covered_end) {
      std::fprintf(stderr, "capacity_planner: shard %zu starts at %zu, expected %zu — gap/overlap\n",
                   s.shard, s.first, covered_end);
      return 2;
    }
    covered_end = s.first + s.count;
  }

  std::printf("== sharded capacity merge ==\n");
  std::printf("  %zu shards tile sessions [0, %zu) exactly\n", slices.size(), covered_end);
  std::printf("  %llu sessions, %llu sim events, %.1f GB downloaded\n",
              static_cast<unsigned long long>(merged.sessions),
              static_cast<unsigned long long>(merged.sim_events),
              static_cast<double>(merged.bytes_downloaded) / 1e9);
  std::printf("  mean session download rate %.2f Mbps, %llu rebuffers, %llu retries\n",
              merged.mean_download_rate_bps() / 1e6,
              static_cast<unsigned long long>(merged.rebuffer_count),
              static_cast<unsigned long long>(merged.fetch_retries));
  std::printf("  merged sweep digest %016llx over %llu sessions\n",
              static_cast<unsigned long long>(merged.digest.combined),
              static_cast<unsigned long long>(merged.digest.sessions));
  if (merged.digest.sessions != covered_end) {
    std::fprintf(stderr, "capacity_planner: digest covers %llu sessions, range covers %zu\n",
                 static_cast<unsigned long long>(merged.digest.sessions), covered_end);
    return 2;
  }
  if (expect_digest.has_value()) {
    if (merged.digest.combined != *expect_digest) {
      std::fprintf(stderr, "capacity_planner: digest mismatch: merged %016llx != expected %016llx\n",
                   static_cast<unsigned long long>(merged.digest.combined),
                   static_cast<unsigned long long>(*expect_digest));
      return 1;
    }
    std::printf("  digest matches --expect-digest %016llx\n",
                static_cast<unsigned long long>(*expect_digest));
  }
  return 0;
}

void print_dimensioning(const model::AggregateParams& p) {
  const double mean = model::mean_aggregate_rate_bps(p);
  const double sd = std::sqrt(model::variance_aggregate_rate(p));
  std::printf("  E[R] = %.1f Mbps, sd = %.1f Mbps, CoV = %.3f\n", mean / 1e6, sd / 1e6,
              sd / mean);
  for (const double alpha : {1.0, 2.0, 3.0}) {
    const double capacity = model::dimension_link_bps(p, alpha);
    std::printf("    alpha=%.0f  ->  provision %.1f Mbps (overload probability %.3g)\n", alpha,
                capacity / 1e6, model::overload_probability(p, capacity));
  }
  for (const double q : {0.01, 0.001}) {
    std::printf("    violation target %.1f%% -> provision %.1f Mbps\n", q * 100.0,
                model::capacity_for_violation(p, q) / 1e6);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: capacity_planner [--profile-out [path]] [--trace-out path]\n"
               "                        [lambda_per_s] [mean_rate_mbps] [mean_duration_s]\n"
               "       capacity_planner --capacity N [--seconds S]\n"
               "                        [--shards K --shard I] [--shard-out PATH]\n"
               "       capacity_planner --merge [--expect-digest HEX] shard.json...\n"
               "       capacity_planner --flash-crowd N [--gbps G]\n");
  return 2;
}

/// The four modes; each option flag is read by exactly one of them.
enum class Mode : std::uint8_t { kPlan, kCapacity, kMerge, kCrowd };

const char* mode_flag(Mode mode) {
  switch (mode) {
    case Mode::kCapacity:
      return "--capacity";
    case Mode::kMerge:
      return "--merge";
    case Mode::kCrowd:
      return "--flash-crowd";
    case Mode::kPlan:
      break;
  }
  return "planning";
}

int bad_value(const char* what, const char* text) {
  std::fprintf(stderr, "capacity_planner: bad value '%s' for %s\n", text, what);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::string profile_path;
  std::string trace_path;
  std::size_t capacity = 0;
  double capacity_seconds = 2.0;
  std::size_t shards = 1;
  std::size_t shard = 0;
  std::string shard_out;
  std::optional<std::uint64_t> expect_digest;
  bool merge = false;
  std::size_t crowd = 0;
  double crowd_gbps = 1.0;
  // Option flags given, each with the mode that reads it.
  std::vector<std::pair<const char*, Mode>> options;
  while (argc > 1 && std::strncmp(argv[1], "--", 2) == 0) {
    bool ok = true;
    const char* flag = argv[1];
    if (std::strcmp(argv[1], "--capacity") == 0 && argc > 2) {
      ok = runner::parse_whole(argv[2], capacity);
      --argc;
      ++argv;
    } else if (std::strcmp(argv[1], "--flash-crowd") == 0 && argc > 2) {
      ok = runner::parse_whole(argv[2], crowd);
      --argc;
      ++argv;
    } else if (std::strcmp(argv[1], "--gbps") == 0 && argc > 2) {
      options.emplace_back(flag, Mode::kCrowd);
      ok = runner::parse_positive(argv[2], crowd_gbps);
      --argc;
      ++argv;
    } else if (std::strcmp(argv[1], "--seconds") == 0 && argc > 2) {
      options.emplace_back(flag, Mode::kCapacity);
      ok = runner::parse_positive(argv[2], capacity_seconds);
      --argc;
      ++argv;
    } else if (std::strcmp(argv[1], "--shards") == 0 && argc > 2) {
      options.emplace_back(flag, Mode::kCapacity);
      ok = runner::parse_whole(argv[2], shards);
      --argc;
      ++argv;
    } else if (std::strcmp(argv[1], "--shard") == 0 && argc > 2) {
      options.emplace_back(flag, Mode::kCapacity);
      ok = runner::parse_whole(argv[2], shard);
      --argc;
      ++argv;
    } else if (std::strcmp(argv[1], "--shard-out") == 0 && argc > 2) {
      options.emplace_back(flag, Mode::kCapacity);
      shard_out = argv[2];
      --argc;
      ++argv;
    } else if (std::strcmp(argv[1], "--expect-digest") == 0 && argc > 2) {
      options.emplace_back(flag, Mode::kMerge);
      std::uint64_t digest = 0;
      ok = runner::parse_whole(argv[2], digest, 16);
      expect_digest = digest;
      --argc;
      ++argv;
    } else if (std::strcmp(argv[1], "--merge") == 0) {
      merge = true;
    } else if (std::strcmp(argv[1], "--profile-out") == 0) {
      options.emplace_back(flag, Mode::kPlan);
      // The path is optional: positional args are all positive numbers, so
      // a following token that is neither a flag nor one of them is the path.
      profile_path = "BENCH_sweep_profile.json";
      double positional_value = 0.0;
      if (argc > 2 && argv[2][0] != '-' && !runner::parse_positive(argv[2], positional_value)) {
        profile_path = argv[2];
        --argc;
        ++argv;
      }
    } else if (std::strcmp(argv[1], "--trace-out") == 0 && argc > 2) {
      options.emplace_back(flag, Mode::kPlan);
      trace_path = argv[2];
      --argc;
      ++argv;
    } else {
      return usage();
    }
    // Each value branch stepped argv on by one: argv[0] is its flag, argv[1] the value.
    if (!ok) return bad_value(argv[0], argv[1]);
    --argc;
    ++argv;
  }

  // Same precedence as the dispatch below.
  const Mode mode = merge ? Mode::kMerge
                    : crowd > 0 ? Mode::kCrowd
                    : capacity > 0 ? Mode::kCapacity
                                   : Mode::kPlan;
  for (const auto& [flag, reader] : options) {
    if (reader != mode) {
      std::fprintf(stderr, "capacity_planner: %s is not read in %s mode\n", flag, mode_flag(mode));
      return 2;
    }
  }

  if (merge) {
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) paths.emplace_back(argv[i]);
    return run_merge(paths, expect_digest);
  }
  if (crowd > 0) {
    return run_flash_crowd(crowd, crowd_gbps);
  }
  if (capacity > 0) {
    return run_capacity(capacity, capacity_seconds, shards, shard, shard_out);
  }

  double positional[] = {0.5, 1.0, 300.0};  // lambda_per_s, mean_rate_mbps, mean_duration_s
  for (int i = 1; i < argc && i <= 3; ++i) {
    if (!runner::parse_positive(argv[i], positional[i - 1])) {
      return bad_value("a positional argument", argv[i]);
    }
  }
  // Open every output before any work, so a bad path fails up front.
  std::ofstream profile_file;
  if (!runner::open_output("capacity_planner", profile_path, profile_file)) return 2;
  std::unique_ptr<obs::ChromeTraceSink> trace_sink;
  if (!trace_path.empty()) {
    try {
      trace_sink = std::make_unique<obs::ChromeTraceSink>(trace_path);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "capacity_planner: %s\n", e.what());
      return 2;
    }
  }
  model::AggregateParams p;
  p.lambda_per_s = positional[0];
  p.mean_encoding_bps = positional[1] * 1e6;
  p.mean_duration_s = positional[2];
  p.mean_download_rate_bps = 5e6;

  std::printf("== capacity planning (Section 6.1) ==\n");
  std::printf("population: lambda=%.2f sessions/s, E[e]=%.2f Mbps, E[L]=%.0f s, E[G]=%.0f Mbps\n\n",
              p.lambda_per_s, p.mean_encoding_bps / 1e6, p.mean_duration_s,
              p.mean_download_rate_bps / 1e6);
  print_dimensioning(p);

  std::printf("\nvalidation against Monte-Carlo superposition (short ON-OFF):\n");
  model::MonteCarloConfig mc;
  mc.lambda_per_s = p.lambda_per_s;
  mc.horizon_s = 2000.0;
  mc.strategy = model::ModelStrategy::kShortOnOff;
  const double e_mean = p.mean_encoding_bps;
  const double l_mean = p.mean_duration_s;
  const double g_mean = p.mean_download_rate_bps;
  mc.draw_encoding_bps = [e_mean](sim::Rng& r) { return r.uniform(0.5 * e_mean, 1.5 * e_mean); };
  mc.draw_duration_s = [l_mean](sim::Rng& r) { return r.uniform(0.5 * l_mean, 1.5 * l_mean); };
  mc.draw_download_rate_bps = [g_mean](sim::Rng&) { return g_mean; };
  const auto result = model::run_aggregate_monte_carlo(mc);
  std::printf("  simulated mean %.1f Mbps (closed form %.1f), sd %.1f Mbps (closed form %.1f)\n",
              result.mean_bps / 1e6, model::mean_aggregate_rate_bps(p) / 1e6,
              std::sqrt(result.variance) / 1e6, std::sqrt(model::variance_aggregate_rate(p)) / 1e6);
  std::printf("  mean concurrently-active flows: %.1f\n", result.mean_active_flows);

  // Empirical cross-check: a packet-level shared-bottleneck topology —
  // Poisson churn onto one link, R(t) sampled per window — measured against
  // the closed forms on its OWN measured inputs (lambda-hat, E[e], E[L],
  // E[G] all come out of the run, not out of assumption). Scale-model
  // sessions keep it to a couple of seconds; worlds fan across cores and
  // the pooled windows are identical for any worker count.
  {
    constexpr std::size_t kWorlds = 4;
    runner::ParallelSweep pool;
    runner::SweepProfiler profiler{pool.jobs()};
    if (!profile_path.empty()) pool.set_profiler(&profiler);

    const auto make = [](std::size_t g) {
      video::VideoMeta meta;
      meta.id = "planner";
      meta.duration_s = 6.0;
      meta.encoding_bps = 75e3;
      meta.container = video::Container::kFlashHd;
      return streaming::TopologyBuilder{}
          .container(video::Container::kFlashHd)
          .vantage(net::Vantage::kResidence)
          .video(meta)
          .sessions(900)
          .workload(
              streaming::WorkloadBuilder{}
                  .poisson(25.0)
                  .customize([](std::size_t, sim::Rng& rng, streaming::SessionConfig& cfg) {
                    cfg.video.encoding_bps = rng.uniform(50e3, 100e3);
                    cfg.video.duration_s = rng.uniform(4.0, 8.0);
                  })
                  .build())
          .bottleneck_rate_bps(60e6)
          .horizon_s(30.0)
          .warmup_s(10.0)
          .sample_window_s(0.1)
          .seed(7000 + g)
          .build();
    };
    const auto sweep = runner::run_topologies_streamed(pool, 0, kWorlds, make);
    const auto measured = sweep.measured_model_params();
    std::printf("\nempirical topology cross-check (%llu sessions, %zu worlds, %zu workers):\n",
                static_cast<unsigned long long>(sweep.sessions_started), kWorlds, pool.jobs());
    std::printf("  measured lambda=%.1f/s, E[e]=%.0f kbps, E[L]=%.1f s, E[G]=%.2f Mbps\n",
                measured.lambda_per_s, measured.mean_encoding_bps / 1e3,
                measured.mean_duration_s, measured.mean_download_rate_bps / 1e6);
    std::printf("  shared-link R(t): mean %.2f Mbps (Eq 3 on measured inputs: %.2f), "
                "sd %.2f Mbps (Eq 4: %.2f)\n",
                sweep.mean_aggregate_bps() / 1e6,
                model::mean_aggregate_rate_bps(measured) / 1e6,
                std::sqrt(sweep.variance_aggregate()) / 1e6,
                std::sqrt(model::variance_aggregate_rate(measured)) / 1e6);
    if (!profile_path.empty()) {
      const auto summary = profiler.summary();
      std::printf("  sweep profile: %.2f s wall, %.0f%% utilization across %zu workers\n",
                  summary.wall_s, summary.utilization() * 100.0, summary.workers);
      for (std::size_t w = 0; w < summary.per_worker.size(); ++w) {
        const auto& ws = summary.per_worker[w];
        std::printf("    worker %zu: %llu tasks, %.2f s busy (%.0f%% of wall)\n", w,
                    static_cast<unsigned long long>(ws.tasks()), ws.busy_s(),
                    summary.wall_s > 0.0 ? 100.0 * ws.busy_s() / summary.wall_s : 0.0);
      }
      profile_file << summary.to_json("capacity_planner") << "\n";
      std::printf("  profile written: %s\n", profile_path.c_str());
    }
  }

  // One representative private-world session carrying the Chrome-trace
  // sink: topologies reject per-session trace attachments by design, so the
  // span timeline comes from a single session.
  if (trace_sink) {
    video::VideoMeta meta;
    meta.id = "planner-trace";
    meta.duration_s = p.mean_duration_s;
    meta.encoding_bps = p.mean_encoding_bps;
    meta.container = video::Container::kFlash;
    const auto traced = streaming::SessionBuilder{}
                            .vantage(net::Vantage::kResearch)
                            .video(meta)
                            .capture_duration_s(30.0)
                            .seed(7000)
                            .store_trace(false)
                            .trace_sink(trace_sink.get())
                            .run();
    if (!trace_sink->close()) {
      std::fprintf(stderr, "capacity_planner: cannot write %s\n", trace_path.c_str());
      return 2;
    }
    std::printf("\ntraced representative session: %.1f MB downloaded\n",
                static_cast<double>(traced.bytes_downloaded) / 1e6);
    std::printf("  span timeline: %s (open in https://ui.perfetto.dev)\n", trace_path.c_str());
  }

  std::printf("\n== what-if scenarios (paper's conclusion) ==\n");

  std::printf("\n1. HD migration: E[e] doubles to %.1f Mbps\n", 2 * p.mean_encoding_bps / 1e6);
  auto hd = p;
  hd.mean_encoding_bps *= 2.0;
  print_dimensioning(hd);
  {
    const double cov_before = std::sqrt(model::variance_aggregate_rate(p)) /
                              model::mean_aggregate_rate_bps(p);
    const double cov_after = std::sqrt(model::variance_aggregate_rate(hd)) /
                             model::mean_aggregate_rate_bps(hd);
    std::printf("  rate doubles, but traffic is smoother: CoV %.3f -> %.3f\n", cov_before,
                cov_after);
  }

  std::printf("\n2. interruptions: Flash-like policy vs a leaner one (Eq 9)\n");
  for (const auto& [label, buffered, ratio] :
       {std::tuple{"Flash-like (B'=40 s, k=1.25)", 40.0, 1.25},
        std::tuple{"lean (B'=10 s, k=1.05)", 10.0, 1.05}}) {
    model::WasteMonteCarloConfig waste;
    waste.lambda_per_s = p.lambda_per_s;
    waste.draws = 50000;
    waste.buffered_playback_s = buffered;
    waste.accumulation_ratio = ratio;
    waste.draw_encoding_bps = [e_mean](sim::Rng& r) {
      return r.uniform(0.5 * e_mean, 1.5 * e_mean);
    };
    waste.draw_duration_s = [l_mean](sim::Rng& r) { return r.uniform(0.5 * l_mean, 1.5 * l_mean); };
    waste.draw_beta = [](sim::Rng& r) {
      return r.bernoulli(0.6) ? r.uniform(0.01, 0.2) : r.uniform(0.2, 0.99);
    };
    const auto est = model::estimate_wasted_bandwidth(waste);
    std::printf("  %-30s wasted %.1f Mbps (%.1f%% of traffic)\n", label, est.wasted_bps / 1e6,
                est.waste_fraction * 100.0);
  }
  std::printf("\nthe strategy itself does not change E[R]/Var R (conclusion 2) -- only the\n"
              "encoding rates and the interruption-waste policy move the numbers above.\n");
  return 0;
}
