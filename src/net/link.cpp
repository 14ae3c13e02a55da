#include "net/link.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/contracts.hpp"
#include "obs/context.hpp"

namespace vstream::net {

Link::Link(sim::Simulator& sim, Config config, std::unique_ptr<LossModel> loss, sim::Rng rng)
    : sim_{sim}, config_{config}, loss_{std::move(loss)}, rng_{rng} {
  if (config_.rate_bps <= 0.0) throw std::invalid_argument{"Link: rate must be positive"};
  if (!loss_) loss_ = std::make_unique<NoLoss>();
  if (obs::ObsContext* obs = sim_.obs()) {
    auto& reg = obs->metrics();
    ctr_delivered_ = &reg.counter("net.segments_delivered");
    ctr_drops_queue_ = &reg.counter("net.drops_queue");
    ctr_drops_loss_ = &reg.counter("net.drops_loss");
    ctr_drops_fault_ = &reg.counter("net.drops_fault");
    ctr_fault_windows_ = &reg.counter("net.fault_windows");
    gauge_queue_high_water_ = &reg.gauge("net.queue_high_water_bytes");
  }
}

void Link::emit_fault_event(ImpairmentKind kind, bool begin) {
  if (obs::ObsContext* obs = sim_.obs(); obs != nullptr && obs->trace().active()) {
    obs::LinkFault ev;
    ev.t_s = sim_.now().to_seconds();
    ev.kind = to_string(kind);
    ev.begin = begin;
    ev.rate_factor = blackout_active() ? 0.0 : rate_factor_;
    obs->trace().emit(ev);
  }
}

void Link::apply_window(const ImpairmentWindow& window, bool begin) {
  switch (window.kind) {
    case ImpairmentKind::kRateScale:
      rate_factor_ = begin ? window.rate_factor : 1.0;
      break;
    case ImpairmentKind::kDelaySpike:
      extra_delay_ = begin ? window.extra_delay : sim::Duration::zero();
      break;
    case ImpairmentKind::kBurstLoss:
      overlay_loss_ = begin ? make_bursty_loss(window.loss_rate, window.loss_burst_len) : nullptr;
      break;
    case ImpairmentKind::kBlackout:
      if (begin) {
        ++blackout_depth_;
      } else if (blackout_depth_ > 0) {
        --blackout_depth_;
      }
      break;
  }
  if (begin) {
    ++counters_.fault_windows;
    if (ctr_fault_windows_ != nullptr) ctr_fault_windows_->inc();
  }
  emit_fault_event(window.kind, begin);
  obs::Span& span = fault_spans_[static_cast<std::size_t>(window.kind)];
  if (begin) {
    if (!span.active()) {
      span = obs::open_span(sim_, obs::SpanCategory::kLink, to_string(window.kind));
    }
  } else {
    span.close("window_end");
  }
}

void Link::set_impairments(ImpairmentSchedule schedule) {
  schedule.validate();
  impairments_ = std::move(schedule);
  for (const auto& window : impairments_.windows()) {
    // Start before end even for zero-duration windows: schedule order is
    // the FIFO tie-break among equal timestamps.
    sim_.schedule_at(window.start, [this, window] { apply_window(window, true); });
    sim_.schedule_at(window.end(), [this, window] { apply_window(window, false); });
  }
}

void Link::notify(const TcpSegment& segment, LinkEvent event) {
  if (tap_) tap_(sim_.now(), segment, config_.direction, event);
}

void Link::set_rate(double rate_bps) {
  if (rate_bps <= 0.0) throw std::invalid_argument{"Link::set_rate: rate must be positive"};
  config_.rate_bps = rate_bps;
}

sim::Duration Link::unloaded_latency(std::uint32_t payload_bytes) const {
  TcpSegment probe;
  probe.payload_bytes = payload_bytes;
  return sim::transmission_time(probe.wire_bytes(), config_.rate_bps) + config_.prop_delay;
}

void Link::audit_conservation() const {
  VSTREAM_INVARIANT(
      counters_.enqueued == counters_.delivered + counters_.dropped_loss + in_flight_,
      "link conservation broken: enqueued != delivered + dropped_loss + in_flight");
}

bool Link::send(const TcpSegment& segment) {
  if (!receiver_) throw std::logic_error{"Link::send: receiver not set"};

  if (blackout_active()) {
    // Interface down: the segment never reaches the queue. TCP sees pure
    // silence and recovers via its RTO path once the window ends.
    ++counters_.dropped_fault;
    if (ctr_drops_fault_ != nullptr) ctr_drops_fault_->inc();
    notify(segment, LinkEvent::kDropFault);
    return false;
  }

  const std::size_t wire = segment.wire_bytes();
  if (queued_bytes_ + wire > config_.queue_limit_bytes) {
    ++counters_.dropped_queue;
    if (ctr_drops_queue_ != nullptr) ctr_drops_queue_->inc();
    notify(segment, LinkEvent::kDropQueue);
    return false;
  }

  ++counters_.enqueued;
  ++in_flight_;
  queued_bytes_ += wire;
  if (gauge_queue_high_water_ != nullptr) {
    gauge_queue_high_water_->set_max(static_cast<double>(queued_bytes_));
  }
  notify(segment, LinkEvent::kEnqueue);

  const sim::SimTime start = std::max(sim_.now(), busy_until_);
  const sim::SimTime tx_done = start + sim::transmission_time(wire, effective_rate_bps());
  busy_until_ = tx_done;

  // A segment is lost when the base model *or* an active burst-loss overlay
  // says drop. Both draws happen unconditionally while an overlay is live so
  // the base model's state machine advances identically either way.
  bool lost = loss_->should_drop(rng_);
  if (overlay_loss_) lost = overlay_loss_->should_drop(rng_) || lost;

  // Serialisation completes: the segment leaves the queue. These are the
  // two busiest scheduling sites in the tree — the static_asserts pin
  // their closures to the SimCallback SBO fast path at compile time, so a
  // future field on TcpSegment that pushes [this, segment, lost] past 128
  // bytes fails the build here instead of silently heap-allocating per
  // event (the AST wall's capture-size pass guards the sites it can size;
  // these two are proven exactly).
  auto transmit = [this, segment, lost] {
    queued_bytes_ -= segment.wire_bytes();
    notify(segment, LinkEvent::kTransmit);
    if (lost) {
      --in_flight_;
      ++counters_.dropped_loss;
      if (ctr_drops_loss_ != nullptr) ctr_drops_loss_->inc();
      notify(segment, LinkEvent::kDropLoss);
      return;
    }
    auto deliver = [this, segment] {
      --in_flight_;
      ++counters_.delivered;
      if (ctr_delivered_ != nullptr) ctr_delivered_->inc();
      counters_.bytes_delivered += segment.wire_bytes();
      notify(segment, LinkEvent::kDeliver);
      receiver_(segment);
    };
    static_assert(sim::SimCallback::fits_inline<decltype(deliver)>(),
                  "Link delivery closure must stay on the SimCallback SBO fast path");
    sim_.schedule_after(config_.prop_delay + extra_delay_, std::move(deliver));
  };
  static_assert(sim::SimCallback::fits_inline<decltype(transmit)>(),
                "Link transmit closure must stay on the SimCallback SBO fast path");
  sim_.schedule_at(tx_done, std::move(transmit));
  return true;
}

}  // namespace vstream::net
