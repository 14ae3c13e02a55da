#include "net/bottleneck.hpp"

#include <stdexcept>

#include "check/contracts.hpp"

namespace vstream::net {

void SharedBottleneck::Config::validate() const {
  if (rate_bps <= 0.0) {
    throw std::invalid_argument{"SharedBottleneck: rate must be positive"};
  }
  if (queue_limit_bytes == 0) {
    throw std::invalid_argument{"SharedBottleneck: queue limit must be positive"};
  }
  if (loss_rate < 0.0 || loss_rate >= 1.0) {
    throw std::invalid_argument{"SharedBottleneck: loss rate outside [0,1)"};
  }
  if (loss_burst_len < 1.0) {
    throw std::invalid_argument{"SharedBottleneck: loss burst length below 1"};
  }
}

SharedBottleneck::SharedBottleneck(sim::Simulator& sim, const Config& config, sim::Rng& rng) {
  config.validate();
  const Link::Config link_cfg{.rate_bps = config.rate_bps,
                              .prop_delay = config.prop_delay,
                              .queue_limit_bytes = config.queue_limit_bytes};
  link_ = std::make_unique<Link>(sim, link_cfg,
                                 make_bursty_loss(config.loss_rate, config.loss_burst_len),
                                 rng.fork("bottleneck-loss"));
  link_->set_receiver([this](const TcpSegment& segment) {
    const std::uint32_t client = client_of(segment.connection_id);
    // Foreign ids (cross-traffic) contended for the queue; their journey
    // ends here.
    if (client >= legs_.size()) return;
    Path* leg = legs_[client];
    VSTREAM_INVARIANT(leg != nullptr, "bottleneck delivery routed to a detached client");
    if (leg != nullptr) leg->down().send(segment);
  });
  link_->set_tap([this](sim::SimTime at, const TcpSegment& segment, Direction /*down*/,
                        LinkEvent event) { on_link_event(at, segment, event); });
}

void SharedBottleneck::on_link_event(sim::SimTime at, const TcpSegment& segment,
                                     LinkEvent event) {
  const std::uint32_t client = client_of(segment.connection_id);
  if (client < in_flight_.size()) {
    if (event == LinkEvent::kEnqueue) {
      ++in_flight_[client];
    } else if (event == LinkEvent::kDeliver || event == LinkEvent::kDropLoss) {
      --in_flight_[client];
    }
  }
  if (tap_) tap_(at, segment, event);
}

std::uint32_t SharedBottleneck::attach(Path& leg) {
  leg.set_down_ingress(&link());
  legs_.push_back(&leg);
  in_flight_.push_back(0);
  return static_cast<std::uint32_t>(legs_.size() - 1);
}

void SharedBottleneck::detach(std::uint32_t index) {
  VSTREAM_PRECONDITION(index < legs_.size() && legs_[index] != nullptr,
                       "detach of a client that is not attached");
  legs_[index] = nullptr;
}

}  // namespace vstream::net
