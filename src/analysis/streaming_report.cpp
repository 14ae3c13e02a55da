#include "analysis/streaming_report.hpp"

#include "stats/descriptive.hpp"

namespace vstream::analysis {

StreamingReportBuilder::StreamingReportBuilder(const ReportOptions& options)
    : options_{options}, resilience_{options.resilience}, onoff_{options.onoff} {}

void StreamingReportBuilder::add(const capture::PacketRecord& p) {
  ++packets_;
  // Records come in runs of one connection: only an id that differs from
  // the previous record's can be new to the set.
  if (connections_.empty() || p.connection_id != last_connection_) {
    connections_.insert(p.connection_id);
    last_connection_ = p.connection_id;
  }
  retransmissions_.add(p);
  zero_window_.add(p);
  if (handshake_.add(p)) first_rtt_.settle(*handshake_.rtt_s());

  const auto event = onoff_.add(p);
  if (event.has_value() && !event->first_period &&
      event->preceding_off_s >= AckClockOptions{}.min_preceding_off_s) {
    // A steady-state ON period preceded by a qualifying OFF: open a Fig 9
    // window before counting this packet, so the window-opening packet
    // lands in its own window — exactly the batch [start, start + rtt).
    first_rtt_.open_window(event->start_s, event->tied_probe_bytes);
  }
  if (p.direction == net::Direction::kDown && p.payload_bytes > 0) {
    first_rtt_.add_down_data(p.t_s, p.payload_bytes);
  }

  periodicity_.add(p);
}

SessionReport StreamingReportBuilder::finish() const {
  SessionReport report;
  report.label = label_;
  report.packets = packets_;
  report.connections = connections_.size();
  report.retransmission_pct = retransmissions_.fraction() * 100.0;
  report.zero_window_episodes = zero_window_.episodes();
  report.duration_s = duration_s_;

  const auto onoff = onoff_.finish();
  const auto decision = classify_strategy(onoff, connections_.size());
  report.strategy = decision.strategy;
  report.rationale = decision.rationale;
  report.buffering_end_s = onoff.buffering_end_s;
  report.buffering_mb = static_cast<double>(onoff.buffering_bytes) / 1048576.0;
  report.total_mb = static_cast<double>(onoff.total_bytes) / 1048576.0;
  report.has_steady_state = onoff.has_steady_state();
  report.steady_rate_mbps = onoff.steady_rate_bps / 1e6;
  report.median_block_kb = onoff.median_block_bytes() / 1024.0;
  report.median_off_s = onoff.median_off_s();

  const double rate = options_.encoding_bps.has_value() ? *options_.encoding_bps : encoding_bps_;
  if (rate > 0.0) {
    report.buffered_playback_s = onoff.buffered_playback_s(rate);
    if (onoff.has_steady_state()) report.accumulation_ratio = onoff.accumulation_ratio(rate);
  }

  if (const auto rtt = handshake_.rtt_s()) {
    report.rtt_ms = *rtt * 1000.0;
    if (onoff.has_steady_state()) {
      const auto samples = first_rtt_.samples(*rtt);
      if (!samples.empty()) report.median_first_rtt_kb = stats::median(samples) / 1024.0;
    }
  }

  if (onoff.has_steady_state()) {
    const auto periodicity = periodicity_.finish();
    if (periodicity.periodic) report.cycle_period_s = periodicity.period_s;
  }
  report.resilience = resilience_;
  return report;
}

}  // namespace vstream::analysis
