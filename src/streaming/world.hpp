// The shell both world kinds are built on: `run_session`'s private path
// (§2–5) and `run_topology`'s shared bottleneck (§6). `World` owns what
// every world has — the simulator on the caller's arena, the root RNG, the
// observability context, the optional digest and trace sink, the loop
// monitor — and their teardown; the caller builds the rest on `sim()` and
// `rng()`.
//
// The digest mixes every event's FIFO sequence number, and arming the
// monitor schedules an event, so the caller picks where `start_monitor()`
// falls among its own schedule calls and keeps that point fixed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "check/digest.hpp"
#include "obs/context.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace vstream::streaming {

struct WorldStats {
  std::uint64_t sim_events{0};            ///< discrete events the simulator ran
  std::size_t sim_max_events_pending{0};  ///< event-queue high-water mark
};

class World {
 public:
  /// Wires the observability context in before the caller constructs any
  /// component (components cache registry pointers when constructed), then
  /// attaches `digest` and `sink` when given. Both are non-owning.
  World(std::uint64_t seed, sim::ArenaResource* arena, check::StateDigest* digest,
        obs::TraceSink* sink);
  ~World();  ///< detaches the trace sink
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  void start_monitor() { monitor_.start(); }

  /// Call once after the run, while the caller's components are alive:
  /// stops the monitor and closes the spans the horizon cut off (counted in
  /// the `obs.spans_truncated` gauge; the handles left behind go inert).
  WorldStats finish();
  /// The metrics registry as it stands; components may still publish
  /// between `finish()` and this call (the recorder does on `take()`).
  [[nodiscard]] obs::MetricsSnapshot metrics() { return obs_.metrics().snapshot(); }

 private:
  sim::Simulator sim_;
  obs::ObsContext obs_;
  sim::Rng rng_;
  obs::SimLoopMonitor monitor_;
  obs::TraceSink* sink_;
};

/// A world run's determinism fingerprint: the simulator digest (event order
/// + component state) with the headline outcome folded in after the run.
struct RunFingerprint {
  std::uint64_t digest{0};
  std::uint64_t words_mixed{0};
  std::uint64_t sim_events{0};
  std::uint64_t bytes_downloaded{0};

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

template <typename Result>
struct Fingerprinted {
  Result result;
  RunFingerprint print;
};

/// The one way to fingerprint a world: run `cfg` with a fresh digest in
/// place of any it carries, then fold the outcome in, so a divergence the
/// event stream missed still flips it.
template <typename Config, typename Run, typename FoldOutcome>
[[nodiscard]] auto run_fingerprinted(Config& cfg, const Run& run, const FoldOutcome& fold_outcome) {
  check::StateDigest digest;
  cfg.digest = &digest;
  Fingerprinted<std::invoke_result_t<const Run&, const Config&>> out{run(cfg), {}};
  cfg.digest = nullptr;
  fold_outcome(digest, out.result);
  out.print = {digest.value(), digest.words_mixed(), out.result.sim_events,
               out.result.bytes_downloaded};
  return out;
}

}  // namespace vstream::streaming
