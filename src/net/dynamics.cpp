#include "net/dynamics.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace vstream::net {

const char* to_string(ImpairmentKind kind) {
  switch (kind) {
    case ImpairmentKind::kRateScale:
      return "rate_scale";
    case ImpairmentKind::kDelaySpike:
      return "delay_spike";
    case ImpairmentKind::kBurstLoss:
      return "burst_loss";
    case ImpairmentKind::kBlackout:
      return "blackout";
  }
  return "?";
}

ImpairmentSchedule& ImpairmentSchedule::rate_scale(sim::SimTime start, sim::Duration duration,
                                                   double factor) {
  ImpairmentWindow w;
  w.kind = ImpairmentKind::kRateScale;
  w.start = start;
  w.duration = duration;
  w.rate_factor = factor;
  windows_.push_back(w);
  return *this;
}

ImpairmentSchedule& ImpairmentSchedule::delay_spike(sim::SimTime start, sim::Duration duration,
                                                    sim::Duration extra) {
  ImpairmentWindow w;
  w.kind = ImpairmentKind::kDelaySpike;
  w.start = start;
  w.duration = duration;
  w.extra_delay = extra;
  windows_.push_back(w);
  return *this;
}

ImpairmentSchedule& ImpairmentSchedule::burst_loss(sim::SimTime start, sim::Duration duration,
                                                   double rate, double burst_len) {
  ImpairmentWindow w;
  w.kind = ImpairmentKind::kBurstLoss;
  w.start = start;
  w.duration = duration;
  w.loss_rate = rate;
  w.loss_burst_len = burst_len;
  windows_.push_back(w);
  return *this;
}

ImpairmentSchedule& ImpairmentSchedule::blackout(sim::SimTime start, sim::Duration duration) {
  ImpairmentWindow w;
  w.kind = ImpairmentKind::kBlackout;
  w.start = start;
  w.duration = duration;
  windows_.push_back(w);
  return *this;
}

ImpairmentSchedule& ImpairmentSchedule::link_flap(sim::SimTime first, sim::Duration down,
                                                  sim::Duration up, std::size_t count) {
  sim::SimTime at = first;
  for (std::size_t i = 0; i < count; ++i) {
    blackout(at, down);
    at = at + down + up;
  }
  return *this;
}

void ImpairmentSchedule::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument{"ImpairmentSchedule: " + what};
  };
  for (const auto& w : windows_) {
    if (w.start.count_nanos() < 0) fail("window starts before t=0");
    if (w.duration.is_negative()) fail("negative window duration");
    switch (w.kind) {
      case ImpairmentKind::kRateScale:
        if (w.rate_factor <= 0.0) fail("rate factor must be positive (use blackout for zero)");
        break;
      case ImpairmentKind::kDelaySpike:
        if (w.extra_delay.is_negative()) fail("negative delay spike");
        break;
      case ImpairmentKind::kBurstLoss:
        if (w.loss_rate < 0.0 || w.loss_rate >= 1.0) fail("burst loss rate outside [0,1)");
        if (w.loss_burst_len < 1.0) fail("burst length below 1 packet");
        break;
      case ImpairmentKind::kBlackout:
        break;
    }
  }
  // Same-kind overlap check over half-open [start, end) intervals:
  // zero-duration windows are empty and can never overlap anything.
  auto sorted = windows_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ImpairmentWindow& a, const ImpairmentWindow& b) {
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.start < b.start;
                   });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const auto& prev = sorted[i - 1];
    const auto& cur = sorted[i];
    if (prev.kind != cur.kind) continue;
    if (prev.duration.is_zero() || cur.duration.is_zero()) continue;
    if (cur.start < prev.end()) {
      fail(std::string{"overlapping "} + to_string(cur.kind) + " windows");
    }
  }
}

}  // namespace vstream::net
