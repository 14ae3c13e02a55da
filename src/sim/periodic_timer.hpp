// Repeating timer built on the simulator event queue.
//
// Used by pacing disciplines (server block pushes, client pull schedules)
// that fire on a fixed or policy-computed period. The timer is restartable
// and safe to stop from inside its own callback.
#pragma once

#include <functional>
#include <utility>

#include "sim/simulator.hpp"

namespace vstream::sim {

class PeriodicTimer {
 public:
  /// The callback may call `stop()`/`set_period()` on its own timer.
  PeriodicTimer(Simulator& sim, Duration period, std::function<void()> on_fire)
      : sim_{sim}, period_{period}, on_fire_{std::move(on_fire)} {}

  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Arm the timer; the first firing happens one period from now (or after
  /// `initial_delay` if given). Restarting an armed timer reschedules it.
  void start() { start_after(period_); }
  void start_after(Duration initial_delay) {
    stop();
    running_ = true;
    schedule(initial_delay);
  }

  void stop() {
    running_ = false;
    pending_.cancel();
  }

  void set_period(Duration period) { period_ = period; }
  [[nodiscard]] Duration period() const { return period_; }
  [[nodiscard]] bool running() const { return running_; }

 private:
  void schedule(Duration delay) {
    pending_ = sim_.schedule_after(delay, [this] {
      pending_ = EventHandle{};  // this firing is no longer pending
      on_fire_();
      // The callback may have stopped or re-armed the timer itself.
      if (running_ && !pending_.pending()) schedule(period_);
    });
  }

  Simulator& sim_;
  Duration period_;
  std::function<void()> on_fire_;
  EventHandle pending_;
  bool running_{false};
};

}  // namespace vstream::sim
