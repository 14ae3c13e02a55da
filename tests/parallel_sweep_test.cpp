// Tests for the shared-nothing sweep engine: fold visits every index once
// on a freshly reset lane arena and merges like a serial fold, results land
// in submission order and are bit-identical for any worker count, metrics
// merge the same way serial and parallel, and worker exceptions propagate
// to the caller.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/parallel_sweep.hpp"
#include "streaming/session_builder.hpp"

namespace vstream::runner {
namespace {

/// Canonicalize a metrics snapshot for cross-run comparison: drop the one
/// gauge derived from host wall time (sim-seconds per wall-second), which
/// measures machine speed, not simulation behaviour. Everything else is a
/// deterministic function of the session's seed.
std::string deterministic_json(obs::MetricsSnapshot snapshot) {
  snapshot.gauges.erase("sim.sim_wall_ratio");
  return snapshot.to_json();
}

/// A small but real sweep: distinct seeds and containers so the sessions
/// differ from each other, captures kept short so the test stays fast.
std::vector<streaming::SessionConfig> sweep_configs() {
  std::vector<streaming::SessionConfig> configs;
  for (std::size_t i = 0; i < 5; ++i) {
    video::VideoMeta meta;
    meta.id = "sweep-test";
    meta.duration_s = 120.0;
    meta.encoding_bps = 1.0e6 + 1.0e5 * static_cast<double>(i);
    meta.container = i % 2 == 0 ? video::Container::kFlash : video::Container::kHtml5;
    configs.push_back(streaming::SessionBuilder{}
                          .vantage(net::Vantage::kResearch)
                          .video(meta)
                          .container(meta.container)
                          .capture_duration_s(8.0)
                          .seed(4000 + i)
                          .build());
  }
  return configs;
}

/// Every session of `configs` on `pool`, in submission order.
std::vector<streaming::SessionResult> run_all(
    const ParallelSweep& pool, const std::vector<streaming::SessionConfig>& configs) {
  return pool.map<streaming::SessionResult>(
      configs.size(), [&configs](std::size_t i) { return streaming::run_session(configs[i]); });
}

/// A fold accumulator: indices seen and a position-weighted sum that a
/// lost or doubled index would move.
struct IndexSum {
  std::uint64_t count{0};
  std::uint64_t sum{0};
  void add(std::size_t i) {
    ++count;
    sum += (i + 1) * (i + 7);
  }
  void merge(IndexSum&& lane) {
    count += lane.count;
    sum += lane.sum;
  }
};

TEST(ParallelSweepTest, ExplicitJobCountWins) {
  EXPECT_EQ(ParallelSweep{3}.jobs(), 3u);
  EXPECT_GE(ParallelSweep{0}.jobs(), 1u);  // env/hardware resolution, never 0
}

TEST(ParallelSweepTest, JobCountReadsEnvironment) {
  ::setenv("VSTREAM_JOBS", "7", 1);
  EXPECT_EQ(job_count(0), 7u);
  EXPECT_EQ(job_count(2), 2u);  // explicit request overrides the env
  ::setenv("VSTREAM_JOBS", "not-a-number", 1);
  EXPECT_GE(job_count(0), 1u);  // garbage falls through to hardware
  ::unsetenv("VSTREAM_JOBS");
  EXPECT_GE(job_count(0), 1u);
}

TEST(ParallelSweepTest, JobCountRejectsZeroNegativeAndClampsHuge) {
  ::unsetenv("VSTREAM_JOBS");
  const std::size_t hardware = job_count(0);  // env unset: the hardware fallback

  ::setenv("VSTREAM_JOBS", "0", 1);
  EXPECT_EQ(job_count(0), hardware);  // zero is not a worker count
  ::setenv("VSTREAM_JOBS", "-4", 1);
  EXPECT_EQ(job_count(0), hardware);  // negative falls through too
  ::setenv("VSTREAM_JOBS", "12abc", 1);
  EXPECT_EQ(job_count(0), 12u);  // strtoll semantics: leading digits parse
  ::setenv("VSTREAM_JOBS", "100000", 1);
  EXPECT_EQ(job_count(0), kMaxJobs);  // absurd values cannot fork-bomb the host
  ::setenv("VSTREAM_JOBS", "99999999999999999999999999", 1);
  EXPECT_EQ(job_count(0), kMaxJobs);  // strtoll saturation clamps, not wraps
  ::unsetenv("VSTREAM_JOBS");

  EXPECT_EQ(job_count(100000), kMaxJobs);  // explicit requests clamp the same way
}

TEST(ParallelSweepTest, MapReturnsSubmissionOrder) {
  const ParallelSweep pool{4};
  const auto squares =
      pool.map<std::size_t>(64, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 64u);
  for (std::size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelSweepTest, FoldVisitsEveryIndexOnceOnAResetArenaAndMergesLikeSerial) {
  constexpr std::size_t kCount = 150;
  IndexSum serial;
  for (std::size_t i = 0; i < kCount; ++i) serial.add(i);

  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    ParallelSweep pool{jobs};
    SweepProfiler profiler{pool.jobs()};
    pool.set_profiler(&profiler);
    std::vector<std::atomic<int>> hits(kCount);
    std::atomic<std::size_t> dirty_arenas{0};
    const IndexSum folded = pool.fold<IndexSum>(
        kCount, [&](IndexSum& lane, std::size_t i, sim::ArenaResource& arena) {
          if (arena.bytes_in_use() != 0) dirty_arenas.fetch_add(1);  // not reset since last index
          (void)arena.allocate(64 + i, 8);
          hits[i].fetch_add(1);
          lane.add(i);
        });
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(dirty_arenas.load(), 0u);
    EXPECT_EQ(folded.count, serial.count);
    EXPECT_EQ(folded.sum, serial.sum);

    const auto s = profiler.summary();
    std::uint64_t run_tasks = 0;
    std::uint64_t merge_tasks = 0;
    for (const auto& w : s.per_worker) {
      run_tasks += w.phase_tasks[static_cast<std::size_t>(SweepPhase::kRun)];
      merge_tasks += w.phase_tasks[static_cast<std::size_t>(SweepPhase::kMerge)];
    }
    EXPECT_EQ(run_tasks, kCount);
    EXPECT_EQ(merge_tasks, 1u);

    const IndexSum empty = pool.fold<IndexSum>(
        0, [](IndexSum&, std::size_t, sim::ArenaResource&) { FAIL() << "must not be called"; });
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.sum, 0u);
  }
}

TEST(ParallelSweepTest, FoldRethrowsAfterOtherChunksDrain) {
  constexpr std::size_t kCount = 64;
  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    std::vector<std::atomic<int>> hits(kCount);
    const auto fn = [&hits](IndexSum&, std::size_t i, sim::ArenaResource&) {
      if (i == 17) throw std::runtime_error{"boom"};
      hits[i].fetch_add(1);
    };
    EXPECT_THROW((void)ParallelSweep{jobs}.fold<IndexSum>(kCount, fn), std::runtime_error);
    // Only the thrower's chunk tail may be lost: auto chunks here hold at
    // most 4 indices, so nothing outside [17, 20) is skipped.
    EXPECT_EQ(hits[17].load(), 0);
    for (std::size_t i = 0; i < kCount; ++i) {
      if (i < 17 || i >= 20) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(ParallelSweepTest, ForEachCoversEveryIndexExactlyOnce) {
  const ParallelSweep pool{4};
  constexpr std::size_t kCount = 200;
  std::vector<std::atomic<int>> hits(kCount);
  pool.for_each_chunk(kCount, 1, [&hits](std::size_t i, std::size_t end, std::size_t) {
    EXPECT_EQ(end, i + 1);  // a chunk of one is one index
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelSweepTest, WorkerExceptionPropagatesAfterDraining) {
  const ParallelSweep pool{4};
  std::atomic<std::size_t> completed{0};
  EXPECT_THROW(pool.for_each_chunk(50, 1,
                                   [&completed](std::size_t i, std::size_t, std::size_t) {
                                     if (i == 17) throw std::runtime_error{"boom"};
                                     completed.fetch_add(1);
                                   }),
               std::runtime_error);
  // Chunks of one lose nothing but the thrower: everything else ran.
  EXPECT_EQ(completed.load(), 49u);
}

TEST(ParallelSweepTest, FirstErrorRethrowsOriginalTypeWhenAlone) {
  struct SweepTestError : std::logic_error {
    using std::logic_error::logic_error;
  };
  const ParallelSweep pool{4};
  // Exactly one failure: the original exception object must come back
  // untouched — type intact, message intact, no drop suffix.
  try {
    pool.for_each_chunk(40, 1, [](std::size_t i, std::size_t, std::size_t) {
      if (i == 11) throw SweepTestError{"original"};
    });
    FAIL() << "expected SweepTestError";
  } catch (const SweepTestError& e) {
    EXPECT_STREQ(e.what(), "original");
  }
  EXPECT_EQ(pool.errors_dropped(), 0u);
}

TEST(ParallelSweepTest, MultipleErrorsCountDropsAndAnnotateMessage) {
  const ParallelSweep pool{4};
  std::atomic<std::size_t> completed{0};
  try {
    pool.for_each_chunk(60, 1, [&completed](std::size_t i, std::size_t, std::size_t) {
      if (i % 10 == 3) throw std::runtime_error{"fail@" + std::to_string(i)};
      completed.fetch_add(1);
    });
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    // 6 throwers: one rethrown, 5 dropped — and the rethrown message says so.
    EXPECT_NE(std::string{e.what()}.find("(sweep dropped 5 further worker error(s))"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(pool.errors_dropped(), 5u);
  EXPECT_EQ(completed.load(), 54u);  // every non-throwing index still ran

  // The counter is per-sweep state: a clean sweep resets it.
  pool.for_each_chunk(8, 1, [](std::size_t, std::size_t, std::size_t) {});
  EXPECT_EQ(pool.errors_dropped(), 0u);
}

TEST(ParallelSweepTest, WorkerIndexResetsAfterSweep) {
  const ParallelSweep pool{4};
  std::atomic<bool> saw_nonzero{false};
  std::atomic<std::size_t> arrived{0};
  pool.for_each_chunk(64, 1, [&saw_nonzero, &arrived](std::size_t, std::size_t, std::size_t) {
    arrived.fetch_add(1);
    // Rendezvous: the caller (worker 0) holds its task open until a spawned
    // worker has entered the sweep — on a loaded single-core host the caller
    // can otherwise drain all 64 trivial tasks before the spawned threads
    // are ever scheduled. Bounded so a pathological scheduler fails the
    // assertion instead of hanging the suite.
    for (int spin = 0;
         ParallelSweep::current_worker() == 0 && arrived.load() < 2 && spin < 4'000'000; ++spin) {
      std::this_thread::yield();
    }
    if (ParallelSweep::current_worker() != 0) saw_nonzero.store(true);
  });
  EXPECT_TRUE(saw_nonzero.load());  // spawned workers really did attribute as 1..N-1
  // After the sweep the caller's thread is plain worker 0 again.
  EXPECT_EQ(ParallelSweep::current_worker(), 0u);
}

TEST(ParallelSweepTest, ForEachChunkCoversRangeOnceWithValidWorkers) {
  const ParallelSweep pool{4};
  static constexpr std::size_t kCount = 333;
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<std::size_t> chunks{0};
  pool.for_each_chunk(kCount, 10,
                      [&hits, &chunks, &pool](std::size_t begin, std::size_t end,
                                              std::size_t worker) {
                        EXPECT_LT(worker, pool.jobs());
                        EXPECT_LT(begin, end);
                        EXPECT_LE(end, kCount);
                        EXPECT_LE(end - begin, 10u);  // explicit chunk size respected
                        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
                        chunks.fetch_add(1);
                      });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_EQ(chunks.load(), (kCount + 9) / 10);
}

TEST(ParallelSweepTest, ThrowingChunkAbandonsOnlyItsOwnTail) {
  const ParallelSweep pool{1};  // serial: chunk claim order is deterministic
  std::vector<int> hits(30, 0);
  EXPECT_THROW(pool.for_each_chunk(30, 10,
                                   [&hits](std::size_t begin, std::size_t end, std::size_t) {
                                     for (std::size_t i = begin; i < end; ++i) {
                                       if (i == 14) throw std::runtime_error{"mid-chunk"};
                                       hits[i] += 1;
                                     }
                                   }),
               std::runtime_error);
  // Chunk [10,20) died at 14: its tail is abandoned, every other chunk ran.
  for (std::size_t i = 0; i < 30; ++i) {
    const bool abandoned = i >= 14 && i < 20;
    EXPECT_EQ(hits[i], abandoned ? 0 : 1) << "index " << i;
  }
}

TEST(ParallelSweepTest, MapSupportsNonDefaultConstructibleResults) {
  struct Opaque {
    explicit Opaque(std::size_t v) : value{v} {}
    Opaque(Opaque&&) = default;
    Opaque& operator=(Opaque&&) = default;
    std::size_t value;
  };
  static_assert(!std::is_default_constructible_v<Opaque>);
  const ParallelSweep pool{4};
  const auto out = pool.map<Opaque>(97, [](std::size_t i) { return Opaque{i * 3}; });
  ASSERT_EQ(out.size(), 97u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].value, i * 3);
}

TEST(ParallelSweepTest, SessionResultsIdenticalAcrossWorkerCounts) {
  const auto configs = sweep_configs();
  const auto serial = run_all(ParallelSweep{1}, configs);
  ASSERT_EQ(serial.size(), configs.size());

  for (const std::size_t jobs : {2u, 4u}) {
    const auto parallel = run_all(ParallelSweep{jobs}, configs);
    ASSERT_EQ(parallel.size(), serial.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " session=" + std::to_string(i));
      // Each world is rebuilt from the config's seed, so every observable —
      // traffic volume, flow structure, event counts, metrics — must be
      // bit-identical to the serial run, in submission order.
      EXPECT_EQ(parallel[i].bytes_downloaded, serial[i].bytes_downloaded);
      EXPECT_EQ(parallel[i].connections, serial[i].connections);
      EXPECT_EQ(parallel[i].sim_events, serial[i].sim_events);
      EXPECT_EQ(parallel[i].sim_max_events_pending, serial[i].sim_max_events_pending);
      EXPECT_EQ(parallel[i].trace.packets.size(), serial[i].trace.packets.size());
      EXPECT_EQ(parallel[i].encoding_bps_estimated, serial[i].encoding_bps_estimated);
      EXPECT_EQ(deterministic_json(parallel[i].metrics), deterministic_json(serial[i].metrics));
    }
  }
}

TEST(ParallelSweepTest, MetricsMergeEqualsSerial) {
  const auto configs = sweep_configs();
  const auto merge_all = [](const std::vector<streaming::SessionResult>& results) {
    obs::MetricsSnapshot merged;
    for (const auto& r : results) merged.merge_from(r.metrics);
    return deterministic_json(std::move(merged));
  };
  // The merge itself is serial on the caller's thread; with per-session
  // snapshots identical across worker counts, the merged rollup is too.
  const auto serial_json = merge_all(run_all(ParallelSweep{1}, configs));
  const auto parallel_json = merge_all(run_all(ParallelSweep{4}, configs));
  EXPECT_FALSE(serial_json.empty());
  EXPECT_EQ(parallel_json, serial_json);
}

// ---- sweep profiler ------------------------------------------------------

TEST(SweepProfilerTest, RecordAccumulatesPerWorkerPhases) {
  SweepProfiler profiler{2};
  profiler.record(0, SweepPhase::kBuild, 1.0);
  profiler.record(1, SweepPhase::kRun, 2.0, 3);
  profiler.record(1, SweepPhase::kRun, 0.5);
  profiler.record(1, SweepPhase::kMerge, 0.25);
  EXPECT_THROW(profiler.record(2, SweepPhase::kRun, 1.0), std::out_of_range);

  const auto s = profiler.summary();
  ASSERT_EQ(s.workers, 2u);
  ASSERT_EQ(s.per_worker.size(), 2u);
  EXPECT_DOUBLE_EQ(s.per_worker[0].busy_s(), 1.0);
  EXPECT_EQ(s.per_worker[0].tasks(), 1u);
  EXPECT_DOUBLE_EQ(s.per_worker[1].phase_s[static_cast<std::size_t>(SweepPhase::kRun)], 2.5);
  EXPECT_EQ(s.per_worker[1].phase_tasks[static_cast<std::size_t>(SweepPhase::kRun)], 4u);
  EXPECT_DOUBLE_EQ(s.busy_s(), 3.75);
  EXPECT_EQ(s.tasks(), 6u);
  EXPECT_GE(s.wall_s, 0.0);
}

TEST(SweepProfilerTest, ScopeIsInertOnNullAndRecordsOneTaskOtherwise) {
  { const SweepProfiler::Scope inert{nullptr, 0, SweepPhase::kRun}; }  // must not crash

  SweepProfiler profiler{1};
  { const SweepProfiler::Scope scope{&profiler, 0, SweepPhase::kAnalyze}; }
  const auto s = profiler.summary();
  EXPECT_EQ(s.per_worker[0].phase_tasks[static_cast<std::size_t>(SweepPhase::kAnalyze)], 1u);
  EXPECT_GE(s.per_worker[0].busy_s(), 0.0);
}

TEST(SweepProfilerTest, UtilizationAndIdleDeriveFromWallTimesWorkers) {
  SweepProfiler::Summary s;
  s.workers = 2;
  s.wall_s = 10.0;
  s.per_worker.resize(2);
  s.per_worker[0].phase_s[static_cast<std::size_t>(SweepPhase::kRun)] = 4.0;
  s.per_worker[1].phase_s[static_cast<std::size_t>(SweepPhase::kRun)] = 1.0;
  EXPECT_DOUBLE_EQ(s.utilization(), 0.25);  // 5 busy over 20 worker-seconds
  EXPECT_DOUBLE_EQ(s.idle_s(), 15.0);

  // Nested scopes can over-count busy time past the wall: clamp, don't lie
  // with >100%.
  s.per_worker[0].phase_s[static_cast<std::size_t>(SweepPhase::kRun)] = 25.0;
  EXPECT_DOUBLE_EQ(s.utilization(), 1.0);
  EXPECT_DOUBLE_EQ(s.idle_s(), 0.0);

  SweepProfiler::Summary zero;
  EXPECT_DOUBLE_EQ(zero.utilization(), 0.0);
}

TEST(SweepProfilerTest, SummaryJsonCarriesPerWorkerPhaseBreakdown) {
  SweepProfiler::Summary s;
  s.workers = 1;
  s.wall_s = 2.0;
  s.per_worker.resize(1);
  s.per_worker[0].phase_s[static_cast<std::size_t>(SweepPhase::kBuild)] = 0.5;
  s.per_worker[0].phase_tasks[static_cast<std::size_t>(SweepPhase::kBuild)] = 1;

  s.per_worker[0].phase_max_s[static_cast<std::size_t>(SweepPhase::kBuild)] = 0.5;

  const std::string json = s.to_json("unit");
  EXPECT_NE(json.find("\"name\":\"unit\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"workers\":1"), std::string::npos);
  EXPECT_NE(json.find("\"wall_s\":2.000000"), std::string::npos);
  EXPECT_NE(json.find("\"utilization\":0.250000"), std::string::npos);
  EXPECT_NE(json.find("\"build\":{\"seconds\":0.500000,\"tasks\":1,\"max_s\":0.500000}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"run\":{\"seconds\":0.000000,\"tasks\":0,\"max_s\":0.000000}"),
            std::string::npos);
  // The straggler bound surfaces at both levels: per worker and sweep-wide.
  EXPECT_NE(json.find("\"max_task_s\":0.500000"), std::string::npos) << json;
}

TEST(SweepProfilerTest, MaxTaskTracksWorstSingleRecord) {
  SweepProfiler profiler{2};
  profiler.record(0, SweepPhase::kRun, 0.25);
  profiler.record(0, SweepPhase::kRun, 1.5);  // the straggler
  profiler.record(0, SweepPhase::kRun, 0.5);
  profiler.record(1, SweepPhase::kAnalyze, 0.75);

  const auto s = profiler.summary();
  EXPECT_DOUBLE_EQ(s.per_worker[0].phase_max_s[static_cast<std::size_t>(SweepPhase::kRun)], 1.5);
  EXPECT_DOUBLE_EQ(s.per_worker[0].max_task_s(), 1.5);
  EXPECT_DOUBLE_EQ(s.per_worker[1].max_task_s(), 0.75);
  // Sweep-wide: the worst single task anywhere, not a sum.
  EXPECT_DOUBLE_EQ(s.max_task_s(), 1.5);
}

TEST(SweepProfilerTest, PoolAttributesRunTasksToWorkers) {
  EXPECT_EQ(ParallelSweep::current_worker(), 0u);  // caller thread is worker 0

  ParallelSweep pool{3};
  SweepProfiler profiler{pool.jobs()};
  pool.set_profiler(&profiler);
  constexpr std::size_t kCount = 120;
  std::vector<std::atomic<std::size_t>> seen_worker(kCount);
  (void)pool.fold<IndexSum>(kCount, [&seen_worker](IndexSum&, std::size_t i, sim::ArenaResource&) {
    seen_worker[i].store(ParallelSweep::current_worker());
  });

  const auto s = profiler.summary();
  // Every index ran exactly once inside a kRun scope, attributed to a
  // worker the profiler knows about; the one other task is the merge.
  EXPECT_EQ(s.tasks(), kCount + 1);
  const auto run_phase = static_cast<std::size_t>(SweepPhase::kRun);
  std::uint64_t run_tasks = 0;
  for (const auto& w : s.per_worker) run_tasks += w.phase_tasks[run_phase];
  EXPECT_EQ(run_tasks, kCount);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_LT(seen_worker[i].load(), pool.jobs());
}

TEST(SweepProfilerTest, SummaryJsonStartsWithItsName) {
  SweepProfiler profiler{1};
  profiler.record(0, SweepPhase::kRun, 0.125);
  EXPECT_EQ(profiler.summary().to_json("file-test").rfind("{\"name\":\"file-test\"", 0), 0u);
}

TEST(ParallelSweepTest, ZeroSessionsIsFine) {
  const ParallelSweep pool{4};
  pool.for_each_chunk(0, 1,
                      [](std::size_t, std::size_t, std::size_t) { FAIL() << "must not be called"; });
}

}  // namespace
}  // namespace vstream::runner
