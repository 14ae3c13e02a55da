#include "analysis/connection_demux.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "analysis/streaming_report.hpp"
#include "check/contracts.hpp"
#include "net/segment.hpp"
#include "obs/json.hpp"

namespace vstream::analysis {
namespace {

namespace json = obs::json;

/// Classifier rows print six significant digits, as session reports do.
constexpr json::Format kDigits{6};

void append_csv_number(std::ostringstream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out << buf;
}

template <typename T>
void append_csv_optional(std::ostringstream& out, const std::optional<T>& v) {
  if (v.has_value()) append_csv_number(out, static_cast<double>(*v));
}

/// Everything one lane tracks for one connection while its records stream
/// through: unwrap state, the single-pass report builder, and the envelope
/// facts the builder does not expose (host tag, packet count, time span).
struct LaneConnection {
  explicit LaneConnection(const ReportOptions& options) : builder{options} {}

  capture::ConnectionUnwrap unwrap;
  StreamingReportBuilder builder;
  std::uint8_t host{0};
  std::size_t packets{0};
  double first_s{0.0};
  double last_s{0.0};
};

[[nodiscard]] ConnectionLabel finish_connection(std::uint64_t id, LaneConnection& state) {
  state.builder.set_duration_s(state.last_s - state.first_s);
  const SessionReport report = state.builder.finish();

  ConnectionLabel label;
  label.connection_id = id;
  label.host = state.host;
  label.packets = state.packets;
  label.first_packet_s = state.first_s;
  label.last_packet_s = state.last_s;
  label.down_payload_mb = report.total_mb;
  label.strategy = report.strategy;
  label.has_steady_state = report.has_steady_state;
  label.median_block_kb = report.median_block_kb;
  label.median_off_s = report.median_off_s;
  label.cycle_period_s = report.cycle_period_s;
  label.steady_rate_mbps = report.steady_rate_mbps;
  label.rtt_ms = report.rtt_ms;
  label.median_first_rtt_kb = report.median_first_rtt_kb;
  // Ack-clock presence (§4.2): when the first-RTT burst covers less than
  // half a block, the remainder is paced by the receiver's ack clock; when
  // it covers the block, the server dumps each block into one window.
  if (report.median_first_rtt_kb.has_value() && report.median_block_kb > 0.0) {
    label.ack_clocked = *report.median_first_rtt_kb < 0.5 * report.median_block_kb;
  }
  label.retransmission_pct = report.retransmission_pct;
  label.zero_window_episodes = report.zero_window_episodes;
  return label;
}

}  // namespace

LaneResult classify_lane(const capture::MmapPcapReader& reader, std::size_t lanes,
                         std::size_t lane, bool flip, const ReportOptions& options) {
  VSTREAM_PRECONDITION(lane < lanes, "lane out of range");
  LaneResult result;
  // std::map keeps connections in ascending-id order, which is both the
  // output order and what makes the merge a splice instead of a sort.
  std::map<std::uint64_t, LaneConnection> connections;
  capture::FrameProbe probe;
  capture::PacketRecord record;
  reader.for_each([&](const capture::PcapRecordView& view) {
    ++result.records;
    if (!capture::probe_frame(view, probe) || probe.connection_id % lanes != lane) return;
    (probe.down ? result.down_payload_bytes : result.up_payload_bytes) += probe.payload_bytes;

    auto [it, inserted] = connections.try_emplace(probe.connection_id, options);
    LaneConnection& state = it->second;
    // The shared decode step of every reader path, unwrapping against this
    // connection's own streams exactly as the serial reader does. A probed
    // record always decodes.
    const auto unwrap_for = [&state](std::uint64_t) -> capture::ConnectionUnwrap& {
      return state.unwrap;
    };
    (void)capture::decode_record(view, unwrap_for, record);
    if (flip) record.direction = net::opposite(record.direction);

    if (inserted) {
      state.host = record.host;
      state.first_s = record.t_s;
    }
    state.last_s = record.t_s;
    ++state.packets;
    state.builder.add(record);
  });

  result.rows.reserve(connections.size());
  for (auto& [id, state] : connections) result.rows.push_back(finish_connection(id, state));
  return result;
}

CaptureClassification merge_lanes(std::vector<LaneResult> lanes) {
  CaptureClassification merged;
  std::uint64_t down_bytes = 0;
  std::uint64_t up_bytes = 0;
  std::size_t total_rows = 0;
  for (const LaneResult& lane : lanes) {
    down_bytes += lane.down_payload_bytes;
    up_bytes += lane.up_payload_bytes;
    total_rows += lane.rows.size();
  }
  merged.records = lanes.empty() ? 0 : lanes.front().records;
  merged.direction_flipped = up_bytes > down_bytes;
  merged.down_payload_mb =
      static_cast<double>(merged.direction_flipped ? up_bytes : down_bytes) / 1048576.0;

  merged.connections.reserve(total_rows);
  for (LaneResult& lane : lanes) {
    for (ConnectionLabel& row : lane.rows) merged.connections.push_back(std::move(row));
  }
  // Each connection lives in exactly one lane, so ids are unique and the
  // sort is a deterministic splice regardless of lane count or order.
  std::sort(merged.connections.begin(), merged.connections.end(),
            [](const ConnectionLabel& a, const ConnectionLabel& b) {
              return a.connection_id < b.connection_id;
            });

  bool any = false;
  double first_s = 0.0;
  double last_s = 0.0;
  for (const auto& row : merged.connections) {
    merged.packets += row.packets;
    if (!any || row.first_packet_s < first_s) first_s = row.first_packet_s;
    if (!any || row.last_packet_s > last_s) last_s = row.last_packet_s;
    any = true;
  }
  merged.duration_s = any ? last_s - first_s : 0.0;
  return merged;
}

CaptureClassification classify_capture_serial(const capture::MmapPcapReader& reader,
                                              const ReportOptions& options) {
  const auto classify = [&](bool flip) {
    return merge_lanes({classify_lane(reader, 1, 0, flip, options)});
  };
  const CaptureClassification as_written = classify(false);
  return as_written.direction_flipped ? classify(true) : as_written;
}

std::string CaptureClassification::to_json() const {
  json::Array rows;
  for (const auto& c : connections) {
    rows.raw(json::Object{}
                 .integer("connection", c.connection_id)
                 .integer("host", c.host)
                 .integer("packets", c.packets)
                 .number("first_packet_s", c.first_packet_s, kDigits)
                 .number("last_packet_s", c.last_packet_s, kDigits)
                 .number("down_payload_mb", c.down_payload_mb, kDigits)
                 .string("strategy", to_string(c.strategy))
                 .boolean("has_steady_state", c.has_steady_state)
                 .number("median_block_kb", c.median_block_kb, kDigits)
                 .number("median_off_s", c.median_off_s, kDigits)
                 .number("cycle_period_s", c.cycle_period_s, kDigits)
                 .number("steady_rate_mbps", c.steady_rate_mbps, kDigits)
                 .number("rtt_ms", c.rtt_ms, kDigits)
                 .number("median_first_rtt_kb", c.median_first_rtt_kb, kDigits)
                 .boolean("ack_clocked", c.ack_clocked)
                 .number("retransmission_pct", c.retransmission_pct, kDigits)
                 .integer("zero_window_episodes", c.zero_window_episodes)
                 .close());
  }
  return json::Object{}
      .integer("records", records)
      .integer("packets", packets)
      .number("duration_s", duration_s, kDigits)
      .number("down_payload_mb", down_payload_mb, kDigits)
      .boolean("direction_flipped", direction_flipped)
      .raw("connections", rows.close())
      .close();
}

std::string CaptureClassification::to_csv() const {
  std::ostringstream out;
  out << "connection,host,packets,first_packet_s,last_packet_s,down_payload_mb,strategy,"
         "has_steady_state,median_block_kb,median_off_s,cycle_period_s,steady_rate_mbps,"
         "rtt_ms,median_first_rtt_kb,ack_clocked,retransmission_pct,zero_window_episodes\n";
  for (const auto& c : connections) {
    out << c.connection_id << "," << static_cast<unsigned>(c.host) << "," << c.packets << ",";
    append_csv_number(out, c.first_packet_s);
    out << ",";
    append_csv_number(out, c.last_packet_s);
    out << ",";
    append_csv_number(out, c.down_payload_mb);
    out << "," << to_string(c.strategy) << "," << (c.has_steady_state ? "true" : "false") << ",";
    append_csv_number(out, c.median_block_kb);
    out << ",";
    append_csv_number(out, c.median_off_s);
    out << ",";
    append_csv_optional(out, c.cycle_period_s);
    out << ",";
    append_csv_number(out, c.steady_rate_mbps);
    out << ",";
    append_csv_optional(out, c.rtt_ms);
    out << ",";
    append_csv_optional(out, c.median_first_rtt_kb);
    out << ",";
    if (c.ack_clocked.has_value()) out << (*c.ack_clocked ? "true" : "false");
    out << ",";
    append_csv_number(out, c.retransmission_pct);
    out << "," << c.zero_window_episodes << "\n";
  }
  return out.str();
}

std::string CaptureClassification::render() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof line,
                "capture: %llu records, %zu packets, %zu connections, %.2f MB down, %.1f s%s\n",
                static_cast<unsigned long long>(records), packets, connections.size(),
                down_payload_mb, duration_s, direction_flipped ? " (directions flipped)" : "");
  out << line;
  out << "conn  host  packets     down MB  strategy          block KB   off s  rate Mb/s  "
         "ack-clock  retx%  zero-win\n";
  for (const auto& c : connections) {
    const char* clock = c.ack_clocked.has_value() ? (*c.ack_clocked ? "yes" : "no") : "-";
    std::snprintf(line, sizeof line,
                  "%-5llu %-5u %-11zu %-8.2f %-17s %-10.1f %-7.2f %-10.2f %-10s %-6.2f %zu\n",
                  static_cast<unsigned long long>(c.connection_id), c.host, c.packets,
                  c.down_payload_mb, to_string(c.strategy).c_str(), c.median_block_kb,
                  c.median_off_s, c.steady_rate_mbps, clock, c.retransmission_pct,
                  c.zero_window_episodes);
    out << line;
  }
  return out.str();
}

}  // namespace vstream::analysis
