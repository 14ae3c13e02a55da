// Per-connection flow breakdown of a capture.
//
// The multi-connection behaviours in the paper are described per flow: the
// iPad fetched 64 kB-8 MB per connection (Section 5.1.3), Netflix used "a
// large number of TCP connections" and showed an ack clock exactly on the
// single-block connections (Section 5.2.2). This module builds the flow
// table a measurement analyst would extract from the capture.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "capture/trace_view.hpp"

namespace vstream::analysis {

struct FlowRecord {
  std::uint64_t connection_id{0};
  double first_packet_s{0.0};
  double last_packet_s{0.0};
  std::uint64_t down_payload_bytes{0};
  std::uint64_t up_payload_bytes{0};
  std::size_t down_packets{0};
  std::size_t up_packets{0};
  std::uint64_t retransmitted_bytes{0};
  bool saw_syn{false};
  bool saw_fin{false};
  std::optional<double> handshake_rtt_s;

  [[nodiscard]] double duration_s() const { return last_packet_s - first_packet_s; }
  [[nodiscard]] double retransmission_fraction() const {
    return down_payload_bytes == 0
               ? 0.0
               : static_cast<double>(retransmitted_bytes) /
                     static_cast<double>(down_payload_bytes);
  }
};

struct FlowTable {
  std::vector<FlowRecord> flows;  ///< ordered by first packet time

  [[nodiscard]] std::size_t size() const { return flows.size(); }
  [[nodiscard]] const FlowRecord* find(std::uint64_t connection_id) const;

  /// Largest and smallest per-connection download amounts.
  [[nodiscard]] std::uint64_t max_down_bytes() const;
  [[nodiscard]] std::uint64_t min_down_bytes() const;

  [[nodiscard]] std::string render() const;
};

/// Implemented as a walk feeding a `FlowAccumulator`, so the batch and
/// streaming paths share one per-flow state machine.
[[nodiscard]] FlowTable build_flow_table(capture::TraceView trace);

}  // namespace vstream::analysis
