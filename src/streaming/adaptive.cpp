#include "streaming/adaptive.hpp"

#include <algorithm>

namespace vstream::streaming {

namespace {

/// Only shift up when at least this much content is buffered.
constexpr double kUpshiftBufferS{20.0};
/// Shift down as soon as the buffer falls below this.
constexpr double kDownshiftBufferS{8.0};
/// EWMA weight of the newest throughput sample.
constexpr double kEwmaAlpha{0.3};

}  // namespace

AdaptiveRateController::AdaptiveRateController(Config config) : config_{std::move(config)} {
  if (config_.ladder_bps.empty()) {
    throw std::invalid_argument{"AdaptiveRateController: empty ladder"};
  }
  if (!std::is_sorted(config_.ladder_bps.begin(), config_.ladder_bps.end())) {
    throw std::invalid_argument{"AdaptiveRateController: ladder must be ascending"};
  }
  if (config_.safety_factor <= 0.0 || config_.safety_factor > 1.0) {
    throw std::invalid_argument{"AdaptiveRateController: safety factor in (0,1]"};
  }
}

std::size_t AdaptiveRateController::best_index_for(double bandwidth_bps) const {
  const double budget = config_.safety_factor * bandwidth_bps;
  std::size_t best = 0;
  for (std::size_t i = 0; i < config_.ladder_bps.size(); ++i) {
    if (config_.ladder_bps[i] <= budget) best = i;
  }
  return best;
}

void AdaptiveRateController::seed(double bandwidth_estimate_bps) {
  ewma_bps_ = std::max(0.0, bandwidth_estimate_bps);
  index_ = best_index_for(ewma_bps_);
}

bool AdaptiveRateController::on_block(double bytes, double transfer_s, double buffer_s) {
  if (bytes <= 0.0 || transfer_s <= 0.0) return false;
  const double sample = bytes * 8.0 / transfer_s;
  ewma_bps_ = ewma_bps_ <= 0.0
                  ? sample
                  : (1.0 - kEwmaAlpha) * ewma_bps_ + kEwmaAlpha * sample;

  // An almost-dry buffer is an emergency: trust the newest sample rather
  // than waiting for the smoothed estimate to decay.
  const bool panic = buffer_s < kDownshiftBufferS;
  const double estimate = panic ? std::min(ewma_bps_, sample) : ewma_bps_;
  const std::size_t target = best_index_for(estimate);
  std::size_t next = index_;
  if (target > index_ && buffer_s >= kUpshiftBufferS) {
    next = index_ + 1;  // conservative: one rung at a time
  } else if (target < index_) {
    // Panic: jump straight to the sustainable rate; otherwise step down.
    next = panic ? target : index_ - 1;
  }
  if (next == index_) return false;
  index_ = next;
  ++switches_;
  return true;
}

bool AdaptiveRateController::on_fault() {
  if (index_ == 0) return false;
  --index_;
  ++switches_;
  // Pull the estimate down to the new rung so the next throughput samples
  // have to earn the upshift back through the normal hysteresis.
  ewma_bps_ = std::min(ewma_bps_, config_.ladder_bps[index_] / config_.safety_factor);
  return true;
}

}  // namespace vstream::streaming
