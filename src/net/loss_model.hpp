// Stochastic packet-loss models for links.
//
// The paper's cross-network observations (smaller measured buffering in the
// Residence/Academic networks, merged/split blocks) are driven by loss; the
// profiles below calibrate Bernoulli loss to the paper's reported
// retransmission medians, and Gilbert-Elliott adds bursty-loss experiments.
#pragma once

#include <memory>

#include "sim/rng.hpp"

namespace vstream::net {

class LossModel {
 public:
  virtual ~LossModel() = default;
  /// Decide the fate of one packet; called once per packet in link order.
  [[nodiscard]] virtual bool should_drop(sim::Rng& rng) = 0;
};

/// Never drops. The default for lossless profiles.
class NoLoss final : public LossModel {
 public:
  [[nodiscard]] bool should_drop(sim::Rng&) override { return false; }
};

/// Independent per-packet loss with fixed probability.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double p);
  [[nodiscard]] bool should_drop(sim::Rng& rng) override;
  [[nodiscard]] double probability() const { return p_; }

 private:
  double p_;
};

/// Two-state Markov (Gilbert-Elliott) burst-loss model. In the Good state
/// packets drop with `p_good`; in the Bad state with `p_bad`. Transitions
/// occur per packet with the given probabilities.
class GilbertElliottLoss final : public LossModel {
 public:
  struct Params {
    double p_good{0.0};        ///< loss prob in Good state
    double p_bad{0.30};        ///< loss prob in Bad state
    double p_good_to_bad{0.0}; ///< per-packet transition Good->Bad
    double p_bad_to_good{0.2}; ///< per-packet transition Bad->Good
  };
  explicit GilbertElliottLoss(Params params);
  [[nodiscard]] bool should_drop(sim::Rng& rng) override;

  /// Long-run average loss probability implied by the chain.
  [[nodiscard]] double steady_state_loss() const;

 private:
  Params params_;
  bool bad_{false};
};

[[nodiscard]] std::unique_ptr<LossModel> make_loss(double bernoulli_p);

/// Loss model with average rate `p` whose drops arrive in runs of mean
/// length `burst_len` (Gilbert-Elliott with a deterministic bad state).
/// `burst_len <= 1` degenerates to Bernoulli.
[[nodiscard]] std::unique_ptr<LossModel> make_bursty_loss(double p, double burst_len);

}  // namespace vstream::net
