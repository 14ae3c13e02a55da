// Fault-injection dynamics: scripted time-varying impairments for links.
//
// The paper's vantage points sat on *shared* uplinks whose conditions moved
// over a session (congestion onset, wireless fades, route changes); the
// static NetworkProfile freezes them at session start. An
// `ImpairmentSchedule` is a validated list of timed windows — rate scaling,
// delay spikes, burst-loss overlays, full blackouts — that a `Link`
// consumes via `Link::set_impairments`. Transitions are driven entirely by
// the sim clock (sim::SimTime), so a faulted run is digest-deterministic
// exactly like a healthy one.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace vstream::net {

enum class ImpairmentKind : std::uint8_t {
  kRateScale,   ///< serialisation rate scaled by `rate_factor`
  kDelaySpike,  ///< `extra_delay` added to the propagation delay
  kBurstLoss,   ///< Gilbert-Elliott overlay layered over the base LossModel
  kBlackout,    ///< link down: every offered segment is dropped
};

[[nodiscard]] const char* to_string(ImpairmentKind kind);

struct ImpairmentWindow {
  ImpairmentKind kind{ImpairmentKind::kBlackout};
  sim::SimTime start{sim::SimTime::zero()};
  sim::Duration duration{sim::Duration::zero()};
  double rate_factor{1.0};                            ///< kRateScale
  sim::Duration extra_delay{sim::Duration::zero()};   ///< kDelaySpike
  double loss_rate{0.0};                              ///< kBurstLoss
  double loss_burst_len{1.0};                         ///< kBurstLoss

  [[nodiscard]] sim::SimTime end() const { return start + duration; }

  friend bool operator==(const ImpairmentWindow&, const ImpairmentWindow&) = default;
};

/// A deterministic script of link impairments. Windows of *different* kinds
/// may overlap (a delay spike during a congestion episode is realistic);
/// windows of the same kind may not — `validate()` rejects them, because
/// two simultaneous rate factors or overlay loss models have no well-defined
/// composition. Zero-duration windows are legal no-ops (the start and end
/// transitions fire back-to-back at the same instant), and a window may
/// extend past the capture horizon — the schedule simply ends mid-window.
class ImpairmentSchedule {
 public:
  /// Scale the link's serialisation rate by `factor` (in (0, ...)) for the
  /// window. factor < 1 models congestion onset; > 1 models relief.
  ImpairmentSchedule& rate_scale(sim::SimTime start, sim::Duration duration, double factor);

  /// Add `extra` to the propagation delay for the window (bufferbloat on a
  /// shared segment, a route change through a longer path).
  ImpairmentSchedule& delay_spike(sim::SimTime start, sim::Duration duration,
                                  sim::Duration extra);

  /// Layer a Gilbert-Elliott loss overlay (average `rate`, mean burst
  /// length `burst_len` packets) over the link's base loss model for the
  /// window. A segment is dropped when either model says drop.
  ImpairmentSchedule& burst_loss(sim::SimTime start, sim::Duration duration, double rate,
                                 double burst_len = 4.0);

  /// Take the link down for the window: every offered segment is dropped
  /// and counted as a fault drop.
  ImpairmentSchedule& blackout(sim::SimTime start, sim::Duration duration);

  /// Convenience: `count` blackouts of `down` each, separated by `up` of
  /// healthy link, starting at `first` — the classic link-flap pattern.
  ImpairmentSchedule& link_flap(sim::SimTime first, sim::Duration down, sim::Duration up,
                                std::size_t count);

  /// Throws std::invalid_argument on nonsense: negative durations or
  /// parameters out of range, or same-kind windows that overlap.
  void validate() const;

  [[nodiscard]] bool empty() const { return windows_.empty(); }
  [[nodiscard]] const std::vector<ImpairmentWindow>& windows() const { return windows_; }

  friend bool operator==(const ImpairmentSchedule&, const ImpairmentSchedule&) = default;

 private:
  std::vector<ImpairmentWindow> windows_;
};

}  // namespace vstream::net
