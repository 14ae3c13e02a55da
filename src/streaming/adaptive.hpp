// Adaptive bitrate controller (extension of the paper's Netflix model).
//
// The paper observes that the Netflix encoding rate "depends on the
// end-to-end available bandwidth" (citing Akhshabi et al.) but models a
// fixed selection. This controller adds the adaptation loop: per-block
// throughput measurements drive switches along the encoding ladder, with a
// buffer-aware hysteresis so transient dips do not cause oscillation.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace vstream::streaming {

class AdaptiveRateController {
 public:
  struct Config {
    std::vector<double> ladder_bps;  ///< ascending encoding rates
    /// Use at most this fraction of the measured throughput.
    double safety_factor{0.8};
  };

  explicit AdaptiveRateController(Config config);

  /// Initialise from an a-priori bandwidth estimate (e.g. the buffering
  /// phase throughput); picks the highest safe ladder rate.
  void seed(double bandwidth_estimate_bps);

  /// Feed one completed block: its size, transfer duration, and the
  /// player's current buffer level. Returns true if the rate switched.
  bool on_block(double bytes, double transfer_s, double buffer_s);

  /// A transport-level fault (request timeout / connection re-establishment)
  /// is stronger evidence of trouble than any throughput sample: step one
  /// rung down immediately. Returns true if the rate switched.
  bool on_fault();

  [[nodiscard]] double current_rate_bps() const { return config_.ladder_bps[index_]; }
  [[nodiscard]] std::size_t current_index() const { return index_; }
  [[nodiscard]] std::size_t switch_count() const { return switches_; }

 private:
  [[nodiscard]] std::size_t best_index_for(double bandwidth_bps) const;

  Config config_;
  std::size_t index_{0};
  double ewma_bps_{0.0};
  std::size_t switches_{0};
};

}  // namespace vstream::streaming
