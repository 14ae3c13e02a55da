#include "analysis/report_json.hpp"

#include "obs/json.hpp"

namespace vstream::analysis {
namespace {

namespace json = obs::json;

/// Reports and flow tables print six significant digits.
constexpr json::Format kDigits{6};

/// The report's fields, left open so a caller can append more.
json::Object report_object(const SessionReport& report) {
  const ResilienceStats& res = report.resilience;
  json::Object out;
  out.string("label", report.label)
      .string("strategy", to_string(report.strategy))
      .string("rationale", report.rationale)
      .number("buffering_end_s", report.buffering_end_s, kDigits)
      .number("buffering_mb", report.buffering_mb, kDigits)
      .number("buffered_playback_s", report.buffered_playback_s, kDigits)
      .boolean("has_steady_state", report.has_steady_state)
      .number("steady_rate_mbps", report.steady_rate_mbps, kDigits)
      .number("median_block_kb", report.median_block_kb, kDigits)
      .number("median_off_s", report.median_off_s, kDigits)
      .number("accumulation_ratio", report.accumulation_ratio, kDigits)
      .number("cycle_period_s", report.cycle_period_s, kDigits)
      .integer("connections", report.connections)
      .integer("packets", report.packets)
      .number("retransmission_pct", report.retransmission_pct, kDigits)
      .integer("zero_window_episodes", report.zero_window_episodes)
      .number("rtt_ms", report.rtt_ms, kDigits)
      .number("median_first_rtt_kb", report.median_first_rtt_kb, kDigits)
      .number("total_mb", report.total_mb, kDigits)
      .number("duration_s", report.duration_s, kDigits)
      .raw("resilience", json::Object{}
                             .integer("fetch_retries", res.fetch_retries)
                             .integer("fetch_timeouts", res.fetch_timeouts)
                             .integer("fetch_abandoned", res.fetch_abandoned)
                             .integer("rebuffer_count", res.rebuffer_count)
                             .integer("stall_count", res.stall_count)
                             .number("stall_time_s", res.stall_time_s, kDigits)
                             .number("longest_stall_s", res.longest_stall_s, kDigits)
                             .integer("fault_drops", res.fault_drops)
                             .integer("fault_windows", res.fault_windows)
                             .integer("rate_switches", res.rate_switches)
                             .close());
  return out;
}

}  // namespace

std::string to_json(const SessionReport& report) { return report_object(report).close(); }

std::string to_json(const SessionReport& report, const obs::MetricsSnapshot& metrics) {
  json::Object out = report_object(report);
  if (!metrics.empty()) out.raw("metrics", metrics.to_json());
  return out.close();
}

std::string to_json(const FlowTable& table) {
  json::Array out;
  for (const auto& f : table.flows) {
    out.raw(json::Object{}
                .integer("connection", f.connection_id)
                .number("first_packet_s", f.first_packet_s, kDigits)
                .number("last_packet_s", f.last_packet_s, kDigits)
                .integer("down_bytes", f.down_payload_bytes)
                .integer("up_bytes", f.up_payload_bytes)
                .integer("retransmitted_bytes", f.retransmitted_bytes)
                .number("handshake_rtt_s", f.handshake_rtt_s, kDigits)
                .boolean("saw_fin", f.saw_fin)
                .close());
  }
  return out.close();
}

}  // namespace vstream::analysis
