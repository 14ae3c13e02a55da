// Duplex path between a streaming server and a viewer.
//
// Wraps two `Link`s (down = server->client carrying video data, up =
// client->server carrying requests and ACKs) built from a NetworkProfile.
// All parallel TCP connections of one streaming session share the path, so
// they contend for the same bottleneck queue, as in the real measurements.
#pragma once

#include <functional>
#include <memory>

#include "net/link.hpp"
#include "net/profile.hpp"

namespace vstream::net {

class Path {
 public:
  Path(sim::Simulator& sim, const NetworkProfile& profile, sim::Rng& rng);

  Path(const Path&) = delete;
  Path& operator=(const Path&) = delete;

  [[nodiscard]] Link& down() { return *down_; }
  [[nodiscard]] Link& up() { return *up_; }

  /// Where the server side transmits data. On a private path this is the
  /// down link itself; in a shared-bottleneck topology it is the bottleneck
  /// link, which fans delivered segments back into this path's down link
  /// (net/bottleneck.hpp). The ingress link is non-owning and must outlive
  /// the path.
  [[nodiscard]] Link& down_ingress() {
    return down_ingress_ != nullptr ? *down_ingress_ : *down_;
  }
  void set_down_ingress(Link* ingress) { down_ingress_ = ingress; }

  /// Base RTT for zero-payload segments with empty queues.
  [[nodiscard]] sim::Duration unloaded_rtt() const;

  [[nodiscard]] const NetworkProfile& profile() const { return profile_; }

  /// Install a tap observing both directions, tagged with the direction.
  /// Each link calls it directly; an empty tap detaches both.
  void set_tap(const Link::Tap& tap);

  /// Attach a fault-injection schedule to the data (down) link.
  void set_impairments(ImpairmentSchedule schedule) { down_->set_impairments(std::move(schedule)); }

 private:
  NetworkProfile profile_;
  std::unique_ptr<Link> down_;
  std::unique_ptr<Link> up_;
  Link* down_ingress_{nullptr};
};

}  // namespace vstream::net
