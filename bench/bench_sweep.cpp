// Sweep-scaling microbench — the perf trajectory for the parallel sweep
// engine's near-linear-scaling claim.
//
// Sections:
//   1. materialized sweep wall time at 1/2/4 workers (run_materialized:
//      per-worker arenas, chunked claiming, padded lanes) — the source of
//      the sweep_speedup_* / sweep_efficiency_4_workers floor metrics;
//   2. streamed sweep (runner/session_sweep.hpp) at the same widths, plus
//      the serial-vs-parallel digest invariance check the floor gates as a
//      correctness metric (streamed_digest_invariant must be 1);
//   3. per-worker arena behaviour across recycled sessions: high-water,
//      steady-state chunk count, allocation counts;
//   4. chunked fan-out dispatch overhead on trivial tasks (map staging +
//      splice vs raw for_each_chunk).
//
// `--metrics-out` writes BENCH_sweep.json; tools/check_bench_floor.py
// compares against bench/sweep_floor.json in the CI perf-smoke job. The
// speedup floors assume >=4 hardware threads (the CI runner shape);
// sweep_efficiency_4_workers is normalized by min(4, hw) so the number is
// comparable on narrower dev boxes even though the floor gates CI only.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <vector>

#include "runner/parallel_sweep.hpp"
#include "runner/session_sweep.hpp"
#include "sim/arena.hpp"
#include "streaming/session_builder.hpp"
#include "support.hpp"
#include "video/datasets.hpp"

namespace {

using namespace vstream;

[[nodiscard]] double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::vector<streaming::SessionConfig> sweep_configs(std::size_t count, double capture_s) {
  sim::Rng rng{505};
  const auto ds = video::make_dataset(video::DatasetId::kYouFlash, rng, count);
  std::vector<streaming::SessionConfig> configs;
  configs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    configs.push_back(
        streaming::SessionBuilder{bench::make_config(
                                      streaming::Service::kYouTube, video::Container::kFlash,
                                      streaming::Application::kFirefox, net::Vantage::kResearch,
                                      ds.videos[i], 11000 + i)}
            .capture_duration_s(capture_s)
            .store_trace(false)  // scaling is about the worlds, not result memory
            .build());
  }
  return configs;
}

/// Run every config on `pool` and hold all the results at once, each world
/// on its worker's recycled arena as in the streamed sweep. Returns how many
/// results were held.
std::size_t run_materialized(const runner::ParallelSweep& pool,
                             const std::vector<streaming::SessionConfig>& configs) {
  struct Held {
    std::vector<streaming::SessionResult> results;
    void merge(Held&& lane) {
      std::move(lane.results.begin(), lane.results.end(), std::back_inserter(results));
    }
  };
  const auto run = [&configs](Held& lane, std::size_t i, sim::ArenaResource& arena) {
    streaming::SessionConfig cfg = configs[i];
    cfg.arena = &arena;
    lane.results.push_back(streaming::run_session(cfg));
  };
  return pool.fold<Held>(configs.size(), run).results.size();
}

double time_materialized(const std::vector<streaming::SessionConfig>& configs, std::size_t jobs) {
  const runner::ParallelSweep pool{jobs};
  const auto t0 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(run_materialized(pool, configs));
  return wall_seconds_since(t0);
}

double time_streamed(const std::vector<streaming::SessionConfig>& configs, std::size_t jobs,
                     runner::SweepAccumulator* out = nullptr) {
  const runner::ParallelSweep pool{jobs};
  const auto t0 = std::chrono::steady_clock::now();
  const auto acc = runner::run_sessions_streamed(
      pool, 0, configs.size(), [&configs](std::size_t i) { return configs[i]; });
  const double s = wall_seconds_since(t0);
  benchmark::DoNotOptimize(acc.sessions);
  if (out != nullptr) *out = acc;
  return s;
}

void print_reproduction() {
  bench::print_header("Sweep scaling -- per-worker arenas + chunked hand-off",
                      "perf trajectory baseline (no paper figure)");
  auto& telemetry = bench::RunTelemetry::instance();

  const std::size_t hw = runner::job_count();
  telemetry.note_metric("hw_threads", static_cast<double>(hw));
  const double ideal4 = static_cast<double>(std::min<std::size_t>(4, hw));

  // 1. materialized sweep scaling --------------------------------------
  // 64 sessions x 180 s keeps each timed sweep around a second or more
  // in Release, so the gated efficiency number rides a measurement long
  // enough that scheduler jitter on a shared CI runner stays in the noise.
  const auto configs = sweep_configs(64, 180.0);
  const double m1 = time_materialized(configs, 1);
  const double m2 = time_materialized(configs, 2);
  const double m4 = time_materialized(configs, 4);
  std::printf("materialized sweep (%zu sessions x 180 s capture, %zu hw threads)\n", configs.size(),
              hw);
  std::printf("  1 worker : %7.2f s\n", m1);
  std::printf("  2 workers: %7.2f s  speedup %.2fx\n", m2, m1 / m2);
  std::printf("  4 workers: %7.2f s  speedup %.2fx (%.0f%% of ideal %.0fx)\n", m4, m1 / m4,
              100.0 * (m1 / m4) / ideal4, ideal4);
  telemetry.note_metric("sweep_speedup_2_workers", m1 / m2);
  telemetry.note_metric("sweep_speedup_4_workers", m1 / m4);
  telemetry.note_metric("sweep_efficiency_4_workers", (m1 / m4) / ideal4);
  telemetry.note_metric("sweep_sessions_per_sec_4_workers",
                        static_cast<double>(configs.size()) / m4);

  // 2. streamed sweep + digest invariance ------------------------------
  runner::SweepAccumulator streamed_serial;
  runner::SweepAccumulator streamed_parallel;
  const double s1 = time_streamed(configs, 1, &streamed_serial);
  const double s4 = time_streamed(configs, 4, &streamed_parallel);
  const bool invariant = streamed_serial.digest == streamed_parallel.digest &&
                         streamed_serial.bytes_downloaded == streamed_parallel.bytes_downloaded;
  std::printf("\nstreamed sweep (O(workers) memory, session_sweep.hpp)\n");
  std::printf("  1 worker : %7.2f s\n", s1);
  std::printf("  4 workers: %7.2f s  speedup %.2fx\n", s4, s1 / s4);
  std::printf("  digest   : serial %016llx / parallel %016llx %s\n",
              static_cast<unsigned long long>(streamed_serial.digest.combined),
              static_cast<unsigned long long>(streamed_parallel.digest.combined),
              invariant ? "ok" : "DIVERGED");
  telemetry.note_metric("streamed_speedup_4_workers", s1 / s4);
  telemetry.note_metric("streamed_vs_materialized_4_workers", m4 / s4);
  telemetry.note_metric("streamed_digest_invariant", invariant ? 1.0 : 0.0);

  // 3. per-worker arena behaviour --------------------------------------
  {
    sim::ArenaResource arena;
    streaming::SessionConfig cfg = configs.front();
    cfg.arena = &arena;
    for (int round = 0; round < 3; ++round) {
      arena.reset();
      const auto result = streaming::run_session(cfg);
      benchmark::DoNotOptimize(result.sim_events);
    }
    std::printf("\nper-worker arena across 3 recycled sessions:\n");
    std::printf("  high water %zu bytes, %zu chunk(s) steady state, %llu allocations, %llu resets\n",
                arena.high_water_bytes(), arena.chunk_count(),
                static_cast<unsigned long long>(arena.allocations()),
                static_cast<unsigned long long>(arena.resets()));
    telemetry.note_metric("arena_high_water_bytes", static_cast<double>(arena.high_water_bytes()));
    telemetry.note_metric("arena_steady_chunks", static_cast<double>(arena.chunk_count()));
  }

  // 4. chunked dispatch overhead on trivial tasks ----------------------
  {
    const runner::ParallelSweep pool{4};
    constexpr std::size_t kTrivial = 200'000;
    const auto t0 = std::chrono::steady_clock::now();
    const auto mapped = pool.map<std::size_t>(kTrivial, [](std::size_t i) { return i; });
    const double map_s = wall_seconds_since(t0);
    benchmark::DoNotOptimize(mapped.size());
    const double map_rate = static_cast<double>(kTrivial) / map_s;
    std::printf("\ntrivial-task dispatch: map+splice %.0f items/s at 4 workers\n", map_rate);
    telemetry.note_metric("map_items_per_sec_4_workers", map_rate);
  }

  // Fold a real analysed sweep into the telemetry aggregate so the JSON
  // carries sessions / sim_events / merged metrics like every other bench.
  const auto outcomes = bench::run_and_analyze_all(sweep_configs(4, 15.0));
  std::printf("\ntelemetry sweep: %zu sessions analysed (VSTREAM_JOBS=%zu)\n", outcomes.size(),
              runner::job_count());
}

// ---- google-benchmark sections ------------------------------------------

void BM_MaterializedSweep(benchmark::State& state) {
  const auto configs = sweep_configs(4, 5.0);
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const runner::ParallelSweep pool{jobs};
    benchmark::DoNotOptimize(run_materialized(pool, configs));
  }
  state.SetLabel("4 sessions x 5 s capture, every result held");
}
BENCHMARK(BM_MaterializedSweep)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_StreamedSweep(benchmark::State& state) {
  const auto configs = sweep_configs(4, 5.0);
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const runner::ParallelSweep pool{jobs};
    const auto make = [&configs](std::size_t i) { return configs[i]; };
    const auto acc = runner::run_sessions_streamed(pool, 0, configs.size(), make);
    benchmark::DoNotOptimize(acc.sessions);
  }
  state.SetLabel("4 sessions x 5 s capture, O(workers) accumulators");
}
BENCHMARK(BM_StreamedSweep)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_MapTrivialStaging(benchmark::State& state) {
  const runner::ParallelSweep pool{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.map<std::size_t>(100'000, [](std::size_t i) { return i; }).size());
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
  state.SetLabel("chunked claim + padded staging + k-way splice, trivial body");
}
BENCHMARK(BM_MapTrivialStaging)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_ArenaRecycledSession(benchmark::State& state) {
  const auto configs = sweep_configs(1, 5.0);
  sim::ArenaResource arena;
  streaming::SessionConfig cfg = configs.front();
  cfg.arena = &arena;
  for (auto _ : state) {
    arena.reset();
    benchmark::DoNotOptimize(streaming::run_session(cfg).sim_events);
  }
  state.SetLabel("one world per iteration on a recycled arena");
}
BENCHMARK(BM_ArenaRecycledSession)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  vstream::bench::RunTelemetry::instance().init("sweep", &argc, argv);
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  vstream::bench::RunTelemetry::instance().finalize();
  return 0;
}
