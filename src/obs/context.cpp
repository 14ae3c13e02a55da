#include "obs/context.hpp"

namespace vstream::obs {

SimLoopMonitor::SimLoopMonitor(sim::Simulator& sim, sim::Duration period)
    : sim_{sim}, timer_{sim, period, [this] { sample(); }} {}

void SimLoopMonitor::sample() {
  ObsContext* obs = sim_.obs();
  if (obs == nullptr) return;
  ++samples_;

  auto& reg = obs->metrics();
  reg.gauge("sim.events_pending_high_water")
      .set_max(static_cast<double>(sim_.max_events_pending()));
  reg.counter("sim.loop_samples").inc();

  if (obs->trace().active()) {
    SimLoopSample s;
    s.t_s = sim_.now().to_seconds();
    s.events_processed = sim_.events_processed();
    s.events_pending = sim_.events_pending();
    s.max_events_pending = sim_.max_events_pending();
    obs->trace().emit(s);
  }
}

}  // namespace vstream::obs
