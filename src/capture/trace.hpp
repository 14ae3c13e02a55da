// Packet traces: what tcpdump/windump produced in the paper's methodology.
//
// A `PacketTrace` is the single currency between the simulation (or a pcap
// file) and the analysis layer: a time-ordered list of TCP segments seen at
// the viewer's network interface. It is data only; its aggregates
// (download curve, retransmission fraction, ...) live on `TraceView`,
// which a `PacketTrace` converts to implicitly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/segment.hpp"

namespace vstream::capture {

/// Ordered widest member first, so the record packs into 48 bytes with no
/// padding: every analysis pass walks these by the million.
struct PacketRecord {
  double t_s{0.0};  ///< capture timestamp, seconds since trace start
  std::uint64_t connection_id{0};
  std::uint64_t seq{0};
  std::uint64_t ack{0};
  std::uint64_t window_bytes{0};
  std::uint32_t payload_bytes{0};
  net::Direction direction{net::Direction::kDown};
  std::uint8_t host{0};  ///< server host (0 = video CDN, 1+ = auxiliary)
  net::TcpFlag flags{net::TcpFlag::kNone};
  bool is_retransmission{false};
};
static_assert(sizeof(PacketRecord) == 48);

struct PacketTrace {
  std::string label;          ///< e.g. "YouTube/Flash/IE @ Research"
  double encoding_bps{0.0};   ///< ground-truth or estimated video rate
  double duration_s{0.0};     ///< capture duration
  std::vector<PacketRecord> packets;
};

}  // namespace vstream::capture
