// Unidirectional link: serialisation at a fixed rate, drop-tail queue,
// propagation delay, and a pluggable stochastic loss model.
//
// A tap hook observes every link event (enqueue, transmit, deliver, drops)
// so the capture module can play the role tcpdump played in the paper.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/dynamics.hpp"
#include "net/loss_model.hpp"
#include "net/segment.hpp"
#include "obs/span.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace vstream::obs {
class Counter;
class Gauge;
}

namespace vstream::net {

enum class LinkEvent : std::uint8_t {
  kEnqueue,    ///< accepted into the transmit queue
  kTransmit,   ///< serialisation onto the wire completed
  kDeliver,    ///< arrived at the far end
  kDropQueue,  ///< rejected: queue full
  kDropLoss,   ///< lost on the wire (loss model)
  kDropFault,  ///< dropped by an active blackout window (fault injection)
};

class Link {
 public:
  struct Config {
    double rate_bps{100e6};
    sim::Duration prop_delay{sim::Duration::millis(10)};
    std::size_t queue_limit_bytes{256 * 1024};
    /// Passed to the tap with every event, so one tap can observe both
    /// links of a path without a per-link wrapper.
    Direction direction{Direction::kDown};
  };

  using Tap = std::function<void(sim::SimTime, const TcpSegment&, Direction, LinkEvent)>;

  struct Counters {
    std::uint64_t enqueued{0};
    std::uint64_t delivered{0};
    std::uint64_t dropped_queue{0};
    std::uint64_t dropped_loss{0};
    std::uint64_t dropped_fault{0};  ///< blackout-window drops
    std::uint64_t bytes_delivered{0};
    std::uint64_t fault_windows{0};  ///< impairment windows entered so far
  };

  Link(sim::Simulator& sim, Config config, std::unique_ptr<LossModel> loss, sim::Rng rng);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Far-end delivery callback. Must be set before the first send.
  void set_receiver(std::function<void(const TcpSegment&)> receiver) {
    receiver_ = std::move(receiver);
  }

  /// Observation hook for capture; may be empty.
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Offer a segment to the link. Returns false if dropped at the queue.
  bool send(const TcpSegment& segment);

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t queued_bytes() const { return queued_bytes_; }

  /// Segments accepted into the queue and not yet delivered or lost on the
  /// wire: queued, serialising or propagating. While this is non-zero the
  /// simulator holds an event that will call back into the link (and then
  /// its receiver). Queue and fault drops never enter the queue, so they
  /// never count.
  [[nodiscard]] std::uint64_t in_flight() const { return in_flight_; }

  /// Conservation law `enqueued == delivered + dropped_loss + in_flight()`
  /// between the counters and the independently kept in-flight tally
  /// (a VSTREAM_INVARIANT; inert at VSTREAM_CHECK_LEVEL 0).
  void audit_conservation() const;

  /// One-way latency of an empty link for a segment of `bytes` payload.
  [[nodiscard]] sim::Duration unloaded_latency(std::uint32_t payload_bytes) const;

  /// Change the serialisation rate mid-run (models congestion onset or
  /// relief). Applies to packets enqueued from now on. This sets the *base*
  /// rate; an active rate-scale impairment window still multiplies it.
  void set_rate(double rate_bps);

  /// Attach a fault-injection schedule (validated here; throws on nonsense).
  /// Each window's start/end transitions are scheduled on the sim clock
  /// immediately, so the schedule must be attached before the run starts or
  /// with every window still in the future. One schedule per link.
  void set_impairments(ImpairmentSchedule schedule);

  /// Base rate x the active rate-scale factor (1 outside windows).
  [[nodiscard]] double effective_rate_bps() const { return config_.rate_bps * rate_factor_; }
  [[nodiscard]] bool blackout_active() const { return blackout_depth_ > 0; }

 private:
  void notify(const TcpSegment& segment, LinkEvent event);
  void apply_window(const ImpairmentWindow& window, bool begin);
  void emit_fault_event(ImpairmentKind kind, bool begin);

  sim::Simulator& sim_;
  Config config_;
  std::unique_ptr<LossModel> loss_;
  sim::Rng rng_;
  std::function<void(const TcpSegment&)> receiver_;
  Tap tap_;
  sim::SimTime busy_until_{sim::SimTime::zero()};
  std::size_t queued_bytes_{0};
  std::uint64_t in_flight_{0};
  Counters counters_;

  // Fault-injection state, driven by the attached ImpairmentSchedule.
  ImpairmentSchedule impairments_;
  double rate_factor_{1.0};
  sim::Duration extra_delay_{sim::Duration::zero()};
  std::unique_ptr<LossModel> overlay_loss_;  ///< live only inside a burst window
  std::uint32_t blackout_depth_{0};          ///< nested same-instant transitions
  /// One episode span per impairment kind (the schedule validator rejects
  /// same-kind overlap, so one open window per kind is an invariant).
  std::array<obs::Span, 4> fault_spans_;

  // Cached registry instruments (shared across all links of one world);
  // null when the world runs unobserved.
  obs::Counter* ctr_delivered_{nullptr};
  obs::Counter* ctr_drops_queue_{nullptr};
  obs::Counter* ctr_drops_loss_{nullptr};
  obs::Counter* ctr_drops_fault_{nullptr};
  obs::Counter* ctr_fault_windows_{nullptr};
  obs::Gauge* gauge_queue_high_water_{nullptr};
};

}  // namespace vstream::net
