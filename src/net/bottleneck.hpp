// Shared bottleneck of a multi-session topology.
//
// The paper's Section 6 model is about *aggregate* traffic: N concurrent
// viewers superposed on one ISP-side link. `SharedBottleneck` owns that
// link and fans delivered segments out to per-client access legs: every
// server endpoint transmits into the bottleneck (via
// `Path::set_down_ingress`), the bottleneck's receiver routes each segment
// by the client index carried in the high 32 bits of its connection id,
// and the segment then traverses the client's own down link. All sessions
// therefore contend for one drop-tail queue — the regime the closed-form
// model (model/aggregate.hpp) describes — while keeping their individual
// access characteristics.
//
// Cross-traffic joins the contention by injecting segments whose connection
// id (`kForeignId`) names no client: they occupy queue and wire like any
// other traffic and are dropped at the router, never reaching a viewer.
//
// A world that frees a finished viewer's leg detaches it first. The
// bottleneck counts each client's segments on the shared link, so the
// owner can tell when none is left that would be routed to the leg; a
// delivery to a detached client is a contract failure, not a dangling
// dereference.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/path.hpp"

namespace vstream::net {

class SharedBottleneck {
 public:
  struct Config {
    /// Serialisation rate of the shared link. Dimension it with
    /// `model::dimension_link_bps` to study the paper's provisioning rule.
    double rate_bps{1e9};
    sim::Duration prop_delay{sim::Duration::millis(5)};
    std::size_t queue_limit_bytes{4 * 1024 * 1024};
    /// Random wire loss on the shared link itself (independent of any
    /// queue overflow, which the drop-tail queue produces endogenously).
    double loss_rate{0.0};
    double loss_burst_len{1.0};

    void validate() const;
  };

  /// The client index lives in the high 32 bits of every connection id.
  static constexpr std::uint32_t kClientShift = 32;
  /// Cross-traffic id: high bits name no attachable client (legs are
  /// indexed from 0 and capped far below 2^32), so the router always drops
  /// it after it has contended for the queue.
  static constexpr std::uint64_t kForeignId = 0xFFFF'FFFF'00C0'FFEEULL;

  /// Forks "bottleneck-loss" from `rng` for the wire-loss model.
  SharedBottleneck(sim::Simulator& sim, const Config& config, sim::Rng& rng);

  SharedBottleneck(const SharedBottleneck&) = delete;
  SharedBottleneck& operator=(const SharedBottleneck&) = delete;

  /// Register a client access leg and point its server-side ingress at the
  /// shared link. Returns the client index; open the leg's connections
  /// with ids starting at `first_connection_id(index)` (tcp::Fabric's
  /// `first_id`) so the router can find the way back. The leg must outlive
  /// the bottleneck's last delivery to it, or be detached first.
  std::uint32_t attach(Path& leg);

  /// Forget client `index`'s leg (it is about to be destroyed). Its index
  /// stays taken. Call only once `in_flight(index)` is zero: a later
  /// delivery to the client fails a VSTREAM_INVARIANT.
  void detach(std::uint32_t index);

  /// Client `index`'s segments accepted into the shared link's queue and
  /// not yet delivered to its leg or lost on the wire.
  [[nodiscard]] std::uint32_t in_flight(std::uint32_t index) const {
    return in_flight_[index];
  }

  /// Observe every event on the shared link. The bottleneck keeps the
  /// link's own tap for its per-client accounting, so observers go here,
  /// not on `link().set_tap`.
  void set_tap(std::function<void(sim::SimTime, const TcpSegment&, LinkEvent)> tap) {
    tap_ = std::move(tap);
  }

  /// First connection id of client `index`: index in the high 32 bits,
  /// counter in the low 32.
  [[nodiscard]] static std::uint64_t first_connection_id(std::uint32_t index) {
    return (static_cast<std::uint64_t>(index) << kClientShift) | 1U;
  }
  /// Client index a segment belongs to (may be >= legs() for foreign ids).
  [[nodiscard]] static std::uint32_t client_of(std::uint64_t connection_id) {
    return static_cast<std::uint32_t>(connection_id >> kClientShift);
  }

  [[nodiscard]] Link& link() { return *link_; }
  [[nodiscard]] const Link& link() const { return *link_; }
  /// Clients ever attached, detached ones included.
  [[nodiscard]] std::size_t legs() const { return legs_.size(); }

 private:
  void on_link_event(sim::SimTime at, const TcpSegment& segment, LinkEvent event);

  std::unique_ptr<Link> link_;
  std::vector<Path*> legs_;             ///< null once detached
  std::vector<std::uint32_t> in_flight_;  ///< per client, see in_flight()
  std::function<void(sim::SimTime, const TcpSegment&, LinkEvent)> tap_;
};

}  // namespace vstream::net
