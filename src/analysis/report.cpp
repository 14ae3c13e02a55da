#include "analysis/report.hpp"

#include <cstdio>

#include "analysis/streaming_report.hpp"

namespace vstream::analysis {

SessionReport build_report(capture::TraceView trace, const ReportOptions& options) {
  StreamingReportBuilder builder{options};
  builder.set_label(trace.label());
  builder.set_duration_s(trace.duration_s());
  builder.set_encoding_bps(trace.encoding_bps());
  for (const auto& p : trace) builder.add(p);
  return builder.finish();
}

std::string SessionReport::render() const {
  char buf[512];
  std::string out;
  const auto add = [&out, &buf](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
  };
  add("session           : %s\n", label.empty() ? "(unlabelled)" : label.c_str());
  add("strategy          : %s ON-OFF (%s)\n", to_string(strategy).c_str(), rationale.c_str());
  add("capture           : %.2f MB, %zu packets, %zu connections, %.1f s\n", total_mb, packets,
      connections, duration_s);
  add("buffering         : %.2f MB, ends at %.2f s", buffering_mb, buffering_end_s);
  if (buffered_playback_s.has_value()) add(" (%.1f s of playback)", *buffered_playback_s);
  add("\n");
  if (has_steady_state) {
    add("steady state      : %.2f Mbps, median block %.0f kB, median OFF %.2f s\n",
        steady_rate_mbps, median_block_kb, median_off_s);
    if (accumulation_ratio.has_value()) {
      add("accumulation ratio: %.2f\n", *accumulation_ratio);
    }
    if (cycle_period_s.has_value()) {
      add("cycle period      : %.2f s (autocorrelation estimate)\n", *cycle_period_s);
    }
  } else {
    add("steady state      : none (bulk transfer)\n");
  }
  add("retransmissions   : %.2f%%\n", retransmission_pct);
  add("zero-window       : %zu episodes\n", zero_window_episodes);
  if (rtt_ms.has_value()) add("handshake RTT     : %.1f ms\n", *rtt_ms);
  if (median_first_rtt_kb.has_value()) {
    add("first-RTT bytes   : %.0f kB (ack-clock indicator)\n", *median_first_rtt_kb);
  }
  if (resilience.any()) {
    add("faults            : %llu windows, %llu packets dropped in blackout\n",
        static_cast<unsigned long long>(resilience.fault_windows),
        static_cast<unsigned long long>(resilience.fault_drops));
    add("recovery          : %u timeouts, %u retries, %u abandoned\n", resilience.fetch_timeouts,
        resilience.fetch_retries, resilience.fetch_abandoned);
    add("rebuffering       : %u stalls, %u recovered, %.2f s stalled (longest %.2f s)\n",
        resilience.stall_count, resilience.rebuffer_count, resilience.stall_time_s,
        resilience.longest_stall_s);
    if (resilience.rate_switches > 0) {
      add("rate switches     : %zu (adaptive ladder)\n", resilience.rate_switches);
    }
  }
  return out;
}

}  // namespace vstream::analysis
