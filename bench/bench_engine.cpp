// Engine microbench — the perf trajectory baseline for the event core.
//
// Sections:
//   1. schedule/dispatch throughput on the slot-pool arena vs a faithful
//      re-implementation of the pre-arena hot path (shared_ptr cancellation
//      flag + std::function callback + full-Event copy out of
//      priority_queue::top()), which is what the >=3x acceptance bar and
//      the CI regression floor are measured against, plus the same arena
//      loop with a determinism digest attached (telemetry only, no floor);
//   2. schedule+cancel churn (timer-heavy TCP workloads re-arm constantly);
//   3. TcpSegment fan-out: copying SACK-bearing segments through a tap
//      chain, now a flat memcpy instead of a heap round trip per hop;
//   4. random streams: fork plus one draw (what every session, leg and
//      auxiliary host does once) and the steady-state per-segment loss
//      draw, each against a bench-local copy of the pre-change
//      `sim::Rng` on an inline, eagerly seeded std::mt19937_64.
//
// Sweep scaling across workers is bench_sweep's job (bench/sweep_floor.json).
//
// `--metrics-out` writes BENCH_engine.json; tools/check_bench_floor.py
// compares extra.dispatch_events_per_sec against bench/engine_floor.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <string_view>
#include <vector>

#include "check/digest.hpp"
#include "net/segment.hpp"
#include "runner/parallel_sweep.hpp"
#include "sim/simulator.hpp"
#include "streaming/session_builder.hpp"
#include "support.hpp"

namespace {

using namespace vstream;

// ---- the pre-arena event loop, preserved as the measurement baseline -----

/// Faithful copy of the seed Simulator's hot path: one shared_ptr<bool> and
/// one std::function heap allocation per event, and dispatch copies the
/// whole Event (closure included) out of priority_queue::top().
class LegacyEngine {
 public:
  struct Event {
    sim::SimTime at;
    std::uint64_t seq{0};
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  using Handle = std::shared_ptr<bool>;

  std::shared_ptr<bool> schedule_at(sim::SimTime at, std::function<void()> fn) {
    auto cancelled = std::make_shared<bool>(false);
    queue_.push(Event{at, next_seq_++, std::move(fn), cancelled});
    return cancelled;
  }
  std::shared_ptr<bool> schedule_after(sim::Duration delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  bool step() {
    while (!queue_.empty()) {
      Event ev = queue_.top();  // the copy the arena engine eliminated
      queue_.pop();
      if (*ev.cancelled) continue;
      now_ = ev.at;
      ev.fn();
      return true;
    }
    return false;
  }
  std::uint64_t run() {
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
  }
  [[nodiscard]] sim::SimTime now() const { return now_; }

 private:
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  sim::SimTime now_{sim::SimTime::zero()};
  std::uint64_t next_seq_{0};
};

// ---- workloads -----------------------------------------------------------

/// The seed's TcpSegment shape: the SACK option lived in a heap-allocated
/// vector, so every copy across a link / tap / closure was an allocator
/// round trip. The legacy chain workload carries this so the baseline is
/// faithful to the pre-change simulator end to end.
struct LegacySegment {
  std::uint64_t connection_id{0};
  std::uint64_t seq{0};
  std::uint64_t ack{0};
  std::uint32_t payload_bytes{0};
  std::uint64_t window_bytes{0};
  std::uint8_t flags{0};
  bool is_retransmission{false};
  std::uint8_t host{0};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sack;
};

void cancel_handle(sim::EventHandle& h) { h.cancel(); }
void cancel_handle(std::shared_ptr<bool>& h) {
  // Seed-style cancellation: flip the flag; the dead Event stays in the
  // queue until the dispatch loop pops (and deep-copies) it.
  if (h) *h = true;
}

/// Self-rescheduling delivery chains modeled on the simulator's real event
/// mix: every dispatched event carries a segment-sized payload in its
/// closure (`Link`'s [this, segment, lost] delivery events). With `churn`
/// set, every event additionally cancels and re-arms a retransmission
/// timer that almost never fires, like `tcp::Endpoint` on every ACK — the
/// dead timer's key/tombstone then travels through the queue. RTO and
/// pacing-style per-chain periods keep the heap genuinely shuffled.
template <typename Engine, typename Segment>
struct Chain {
  Engine* eng;
  std::uint64_t* budget;
  sim::Duration step;
  sim::Duration rto_delay;
  bool churn{false};
  Segment seg;
  typename Engine::Handle rto{};

  void fire() {
    if (*budget == 0) return;
    --*budget;
    if (churn) {
      cancel_handle(rto);
      rto = eng->schedule_after(rto_delay, [] {});
    }
    eng->schedule_after(step, [this, s = seg] {
      benchmark::DoNotOptimize(s.seq);
      fire();
    });
  }
};

template <typename Segment>
Segment make_chain_payload() {
  Segment seg;
  seg.connection_id = 7;
  seg.seq = 1'000'000;
  seg.ack = 900'000;
  seg.payload_bytes = 1448;
  seg.window_bytes = 262'144;
  seg.sack.emplace_back(1'200'000, 1'300'000);
  seg.sack.emplace_back(1'400'000, 1'450'000);
  return seg;
}

template <typename Engine, typename Segment>
std::uint64_t run_chain_workload(Engine& eng, std::size_t chains, std::uint64_t events,
                                 bool churn = false) {
  std::uint64_t budget = events;
  std::vector<Chain<Engine, Segment>> drivers;
  drivers.reserve(chains);
  for (std::size_t c = 0; c < chains; ++c) {
    const auto step = sim::Duration::micros(100 + 7 * static_cast<std::int64_t>(c % 13));
    const auto rto = sim::Duration::micros(8 * (100 + 7 * static_cast<std::int64_t>(c % 13)));
    drivers.push_back(
        Chain<Engine, Segment>{&eng, &budget, step, rto, churn, make_chain_payload<Segment>()});
  }
  for (auto& d : drivers) d.fire();
  return eng.run();
}

[[nodiscard]] double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Best throughput over `reps` runs: wall-clock measures on a shared/busy
/// host are one-sided (interference only ever slows a run down), so the max
/// is the closest observable to the machine's true rate.
template <typename Fn>
double best_of(int reps, Fn&& measure_once) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) best = std::max(best, measure_once());
  return best;
}

template <typename Engine, typename Segment>
double measure_dispatch(std::uint64_t events, bool churn) {
  return best_of(3, [events, churn] {
    Engine eng;
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t n = run_chain_workload<Engine, Segment>(eng, 512, events, churn);
    const double s = wall_seconds_since(t0);
    return static_cast<double>(n) / s;
  });
}

/// The arena dispatch loop with a determinism digest attached, as every
/// audited session, sweep and world runs it: two words mixed per event.
double measure_digest_dispatch(std::uint64_t events) {
  return best_of(3, [events] {
    sim::Simulator eng;
    check::StateDigest digest;
    eng.set_digest(&digest);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t n = run_chain_workload<sim::Simulator, net::TcpSegment>(eng, 512, events);
    const double s = wall_seconds_since(t0);
    benchmark::DoNotOptimize(digest.value());
    return static_cast<double>(n) / s;
  });
}

template <typename Engine>
double measure_schedule_cancel(std::uint64_t rounds) {
  return best_of(3, [rounds] {
    Engine eng;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t kept = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      // Re-arm pattern: schedule a timer, cancel it, arm the replacement —
      // what every retransmit/delack path does per segment.
      auto h = eng.schedule_after(sim::Duration::millis(200), [&kept] { ++kept; });
      cancel_handle(h);
      eng.schedule_after(sim::Duration::micros(10), [&kept] { ++kept; });
      eng.run();
    }
    const double s = wall_seconds_since(t0);
    return static_cast<double>(rounds) / s;
  });
}

net::TcpSegment make_sacked_segment() {
  net::TcpSegment seg;
  seg.connection_id = 7;
  seg.seq = 1'000'000;
  seg.ack = 900'000;
  seg.payload_bytes = 1448;
  seg.window_bytes = 262'144;
  seg.flags = net::TcpFlag::kAck | net::TcpFlag::kPsh;
  seg.sack.emplace_back(1'200'000, 1'300'000);
  seg.sack.emplace_back(1'400'000, 1'450'000);
  seg.sack.emplace_back(1'500'000, 1'520'000);
  return seg;
}

double measure_segment_fanout(std::uint64_t copies) {
  // Link -> capture tap -> recorder: each hop takes its own copy.
  const net::TcpSegment seg = make_sacked_segment();
  std::vector<net::TcpSegment> tap;
  tap.reserve(1024);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  while (done < copies) {
    tap.clear();
    for (int i = 0; i < 1024; ++i) tap.push_back(seg);
    benchmark::DoNotOptimize(tap.data());
    done += 1024;
  }
  const double s = wall_seconds_since(t0);
  return static_cast<double>(done) / s;
}

/// The pre-change `sim::Rng`, kept as the measurement baseline: a 2.5 kB
/// std::mt19937_64 inline in every stream, seeded in full on construction
/// and twisted in full on the first draw.
class LegacyRng {
 public:
  explicit LegacyRng(std::uint64_t seed) : engine_{seed} {}

  LegacyRng fork(std::string_view tag) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a, as sim::Rng hashes tags
    for (const char c : tag) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 1099511628211ULL;
    }
    return LegacyRng{engine_() ^ h};
  }
  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d{lo, hi};
    return d(engine_);
  }
  bool bernoulli(double p) {
    std::bernoulli_distribution d{std::clamp(p, 0.0, 1.0)};
    return d(engine_);
  }

 private:
  std::mt19937_64 engine_;
};

/// A measured rate and a checksum of what the loop drew, so the two stream
/// types can be held to the same output.
struct RngRate {
  double per_sec{0.0};
  double checksum{0.0};
};

/// Fork a child and draw once from it, `forks` times: the per-session
/// pattern (a session's knob, auxiliary and rate-estimate streams, a
/// leg's loss streams).
template <typename Stream>
RngRate measure_rng_fork_draw(std::uint64_t forks) {
  RngRate out;
  out.per_sec = best_of(3, [forks, &out] {
    Stream parent{2011};
    double sum = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < forks; ++i) {
      Stream child = parent.fork("session");
      sum += child.uniform(0.0, 1.0);
    }
    const double s = wall_seconds_since(t0);
    out.checksum = sum;
    return static_cast<double>(forks) / s;
  });
  return out;
}

/// Steady-state Bernoulli draws from one stream: the per-segment loss draw.
template <typename Stream>
RngRate measure_rng_draws(std::uint64_t draws) {
  RngRate out;
  out.per_sec = best_of(3, [draws, &out] {
    Stream stream{2011};
    std::uint64_t hits = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < draws; ++i) hits += stream.bernoulli(0.01) ? 1 : 0;
    const double s = wall_seconds_since(t0);
    out.checksum = static_cast<double>(hits);
    return static_cast<double>(draws) / s;
  });
  return out;
}

std::vector<streaming::SessionConfig> sweep_configs(std::size_t count, double capture_s) {
  sim::Rng rng{404};
  const auto ds = video::make_dataset(video::DatasetId::kYouFlash, rng, count);
  std::vector<streaming::SessionConfig> configs;
  configs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    configs.push_back(
        streaming::SessionBuilder{bench::make_config(
                                      streaming::Service::kYouTube, video::Container::kFlash,
                                      streaming::Application::kFirefox, net::Vantage::kResearch,
                                      ds.videos[i], 9000 + i)}
            .capture_duration_s(capture_s)
            .build());
  }
  return configs;
}

// ---- report --------------------------------------------------------------

void print_reproduction() {
  bench::print_header("Engine microbench -- event arena",
                      "perf trajectory baseline (no paper figure)");
  auto& telemetry = bench::RunTelemetry::instance();

  constexpr std::uint64_t kDispatchEvents = 600'000;
  const double arena = measure_dispatch<sim::Simulator, net::TcpSegment>(kDispatchEvents, false);
  const double legacy = measure_dispatch<LegacyEngine, LegacySegment>(kDispatchEvents, false);
  std::printf("schedule+dispatch, segment-carrying closures (512 chains, %llu events, best of 3)\n",
              static_cast<unsigned long long>(kDispatchEvents));
  std::printf("  arena engine  : %12.0f events/s\n", arena);
  std::printf("  legacy engine : %12.0f events/s (seed hot path: shared_ptr + "
              "std::function + top() copy)\n", legacy);
  std::printf("  speedup       : %.2fx\n", arena / legacy);
  telemetry.note_metric("dispatch_events_per_sec", arena);
  telemetry.note_metric("legacy_dispatch_events_per_sec", legacy);
  telemetry.note_metric("dispatch_speedup_vs_legacy", arena / legacy);

  const double digested = measure_digest_dispatch(kDispatchEvents);
  std::printf("  with digest   : %12.0f events/s (determinism digest attached)\n", digested);
  telemetry.note_metric("digest_dispatch_events_per_sec", digested);

  const double arena_churn = measure_dispatch<sim::Simulator, net::TcpSegment>(kDispatchEvents, true);
  const double legacy_churn = measure_dispatch<LegacyEngine, LegacySegment>(kDispatchEvents, true);
  std::printf("\nschedule+dispatch with per-event timer churn (cancel + re-arm, as tcp::Endpoint)\n");
  std::printf("  arena engine  : %12.0f events/s\n", arena_churn);
  std::printf("  legacy engine : %12.0f events/s\n", legacy_churn);
  std::printf("  speedup       : %.2fx\n", arena_churn / legacy_churn);
  telemetry.note_metric("churn_dispatch_events_per_sec", arena_churn);
  telemetry.note_metric("churn_dispatch_speedup_vs_legacy", arena_churn / legacy_churn);

  constexpr std::uint64_t kCancelRounds = 200'000;
  const double cancel = measure_schedule_cancel<sim::Simulator>(kCancelRounds);
  const double legacy_cancel = measure_schedule_cancel<LegacyEngine>(kCancelRounds);
  std::printf("\nschedule+cancel+rearm\n");
  std::printf("  arena engine  : %12.0f rounds/s (generation bump, no allocation)\n", cancel);
  std::printf("  legacy engine : %12.0f rounds/s (shared_ptr flag + queue tombstone)\n",
              legacy_cancel);
  std::printf("  speedup       : %.2fx\n", cancel / legacy_cancel);
  telemetry.note_metric("schedule_cancel_rounds_per_sec", cancel);
  telemetry.note_metric("schedule_cancel_speedup_vs_legacy", cancel / legacy_cancel);

  constexpr std::uint64_t kCopies = 4'000'000;
  const double fanout = measure_segment_fanout(kCopies);
  std::printf("SACK-bearing segment fan-out: %.0f copies/s (%zu-byte flat segment)\n", fanout,
              sizeof(net::TcpSegment));
  telemetry.note_metric("segment_copies_per_sec", fanout);

  constexpr std::uint64_t kForks = 200'000;
  const RngRate fork_draw = measure_rng_fork_draw<sim::Rng>(kForks);
  const RngRate legacy_fork_draw = measure_rng_fork_draw<LegacyRng>(kForks);
  constexpr std::uint64_t kDraws = 20'000'000;
  const RngRate draws = measure_rng_draws<sim::Rng>(kDraws);
  const RngRate legacy_draws = measure_rng_draws<LegacyRng>(kDraws);
  if (fork_draw.checksum != legacy_fork_draw.checksum || draws.checksum != legacy_draws.checksum) {
    std::fprintf(stderr, "bench_engine: sim::Rng output differs from std::mt19937_64\n");
    std::exit(1);
  }
  std::printf("\nrandom streams (output identical to the std::mt19937_64 baseline)\n");
  std::printf("  fork + 1 draw : %12.0f /s (std::mt19937_64: %.0f /s, %.2fx)\n",
              fork_draw.per_sec, legacy_fork_draw.per_sec,
              fork_draw.per_sec / legacy_fork_draw.per_sec);
  std::printf("  bernoulli     : %12.0f /s (std::mt19937_64: %.0f /s, %.2fx)\n", draws.per_sec,
              legacy_draws.per_sec, draws.per_sec / legacy_draws.per_sec);
  telemetry.note_metric("rng_fork_draws_per_sec", fork_draw.per_sec);
  telemetry.note_metric("rng_fork_speedup_vs_std", fork_draw.per_sec / legacy_fork_draw.per_sec);
  telemetry.note_metric("rng_draws_per_sec", draws.per_sec);
  telemetry.note_metric("rng_draw_speed_vs_std", draws.per_sec / legacy_draws.per_sec);

  // Fold a real analysed sweep into the telemetry aggregate so the JSON
  // carries sessions / sim_events / merged metrics like every other bench.
  const auto outcomes = bench::run_and_analyze_all(sweep_configs(4, 15.0));
  std::printf("\ntelemetry sweep: %zu sessions analysed (VSTREAM_JOBS=%zu)\n", outcomes.size(),
              runner::job_count());
}

// ---- google-benchmark sections ------------------------------------------

void BM_ArenaScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    benchmark::DoNotOptimize(run_chain_workload<sim::Simulator, net::TcpSegment>(sim, 512, 20'000));
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
  state.SetLabel("slot-pool arena, SBO callbacks, inline-SACK segments");
}
BENCHMARK(BM_ArenaScheduleDispatch)->Unit(benchmark::kMillisecond);

void BM_LegacyScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    LegacyEngine eng;
    benchmark::DoNotOptimize(run_chain_workload<LegacyEngine, LegacySegment>(eng, 512, 20'000));
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
  state.SetLabel("seed hot path: shared_ptr + std::function + top() copy + vector SACK");
}
BENCHMARK(BM_LegacyScheduleDispatch)->Unit(benchmark::kMillisecond);

void BM_ArenaChurnDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    benchmark::DoNotOptimize(
        run_chain_workload<sim::Simulator, net::TcpSegment>(sim, 512, 20'000, true));
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
  state.SetLabel("delivery + cancel/re-arm timer churn per event");
}
BENCHMARK(BM_ArenaChurnDispatch)->Unit(benchmark::kMillisecond);

void BM_LegacyChurnDispatch(benchmark::State& state) {
  for (auto _ : state) {
    LegacyEngine eng;
    benchmark::DoNotOptimize(
        run_chain_workload<LegacyEngine, LegacySegment>(eng, 512, 20'000, true));
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
  state.SetLabel("delivery + cancel/re-arm timer churn per event");
}
BENCHMARK(BM_LegacyChurnDispatch)->Unit(benchmark::kMillisecond);

template <typename Engine>
void BM_ScheduleCancelRearm(benchmark::State& state) {
  Engine eng;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    auto h = eng.schedule_after(sim::Duration::millis(200), [&fired] { ++fired; });
    cancel_handle(h);
    eng.schedule_after(sim::Duration::micros(10), [&fired] { ++fired; });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleCancelRearm<sim::Simulator>)->Name("BM_ArenaScheduleCancelRearm");
BENCHMARK(BM_ScheduleCancelRearm<LegacyEngine>)->Name("BM_LegacyScheduleCancelRearm");

void BM_SegmentFanout(benchmark::State& state) {
  const net::TcpSegment seg = make_sacked_segment();
  std::vector<net::TcpSegment> tap;
  tap.reserve(1024);
  for (auto _ : state) {
    tap.clear();
    for (int i = 0; i < 1024; ++i) tap.push_back(seg);
    benchmark::DoNotOptimize(tap.data());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
  state.SetLabel("1024 SACK-bearing segment copies per iteration");
}
BENCHMARK(BM_SegmentFanout);

}  // namespace

int main(int argc, char** argv) {
  vstream::bench::RunTelemetry::instance().init("engine", &argc, argv);
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  vstream::bench::RunTelemetry::instance().finalize();
  return 0;
}
