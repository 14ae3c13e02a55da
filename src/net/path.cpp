#include "net/path.hpp"

namespace vstream::net {

Path::Path(sim::Simulator& sim, const NetworkProfile& profile, sim::Rng& rng)
    : profile_{profile} {
  // Propagation split evenly across the two directions.
  const sim::Duration one_way = profile.base_rtt / 2;

  Link::Config down_cfg{.rate_bps = profile.down_bps,
                        .prop_delay = one_way,
                        .queue_limit_bytes = profile.queue_bytes,
                        .direction = Direction::kDown};
  Link::Config up_cfg{.rate_bps = profile.up_bps,
                      .prop_delay = one_way,
                      .queue_limit_bytes = profile.queue_bytes,
                      .direction = Direction::kUp};

  down_ = std::make_unique<Link>(sim, down_cfg,
                                 make_bursty_loss(profile.loss_rate, profile.loss_burst_len),
                                 rng.fork("down-loss"));
  // ACK/request path loss is far rarer in practice; model it as lossless so
  // retransmission statistics reflect the data direction, as in the paper.
  up_ = std::make_unique<Link>(sim, up_cfg, make_loss(0.0), rng.fork("up-loss"));
}

sim::Duration Path::unloaded_rtt() const {
  return down_->unloaded_latency(0) + up_->unloaded_latency(0);
}

void Path::set_tap(const Link::Tap& tap) {
  down_->set_tap(tap);
  up_->set_tap(tap);
}

}  // namespace vstream::net
