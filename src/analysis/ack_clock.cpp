#include "analysis/ack_clock.hpp"

#include <stdexcept>

#include "analysis/accumulators.hpp"

namespace vstream::analysis {

std::optional<double> estimate_handshake_rtt(capture::TraceView trace) {
  // Viewer-side capture: the client SYN appears on the up direction, the
  // SYN-ACK on the down direction. Match per connection id.
  HandshakeRttTracker tracker;
  for (const auto& p : trace) tracker.add(p);
  return tracker.rtt_s();
}

std::vector<double> first_rtt_bytes(capture::TraceView trace,
                                    const OnOffAnalysis& analysis,
                                    const AckClockOptions& options) {
  double rtt = 0.0;
  if (options.rtt_s.has_value()) {
    rtt = *options.rtt_s;
  } else if (const auto est = estimate_handshake_rtt(trace); est.has_value()) {
    rtt = *est;
  } else {
    throw std::invalid_argument{"first_rtt_bytes: no RTT given and no handshake in trace"};
  }
  if (rtt <= 0.0) throw std::invalid_argument{"first_rtt_bytes: non-positive RTT"};

  // Qualifying ON starts increase and every window is rtt long, so window
  // ends increase too. One walk over the time-ordered trace moves two
  // cursors: `lo` to the first down data record at or after the window
  // start, `hi` to the first at or after its end. The window holds the down
  // data bytes between them, read off the running totals before each.
  auto lo = trace.begin();
  auto hi = trace.begin();
  std::uint64_t before_lo = 0;
  std::uint64_t before_hi = 0;
  const auto advance = [&trace](capture::TraceView::iterator& it, std::uint64_t& before, double t) {
    for (; it != trace.end(); ++it) {
      if (it->direction != net::Direction::kDown || it->payload_bytes == 0) continue;
      if (it->t_s >= t) break;
      before += it->payload_bytes;
    }
  };

  std::vector<double> samples;
  // ON period i (i >= 1) is preceded by OFF i-1.
  for (std::size_t i = 1; i < analysis.on_periods.size(); ++i) {
    if (analysis.off_durations_s[i - 1] < options.min_preceding_off_s) continue;
    const double start = analysis.on_periods[i].start_s;
    advance(lo, before_lo, start);
    advance(hi, before_hi, start + rtt);
    samples.push_back(static_cast<double>(before_hi - before_lo));
  }
  return samples;
}

}  // namespace vstream::analysis
