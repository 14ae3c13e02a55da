// Packet traces: what tcpdump/windump produced in the paper's methodology.
//
// A `PacketTrace` is the single currency between the simulation (or a pcap
// file) and the analysis layer: a time-ordered list of TCP segments seen at
// the viewer's network interface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/segment.hpp"

namespace vstream::capture {

struct PacketRecord {
  double t_s{0.0};  ///< capture timestamp, seconds since trace start
  net::Direction direction{net::Direction::kDown};
  std::uint64_t connection_id{0};
  std::uint8_t host{0};  ///< server host (0 = video CDN, 1+ = auxiliary)
  std::uint64_t seq{0};
  std::uint64_t ack{0};
  std::uint32_t payload_bytes{0};
  std::uint64_t window_bytes{0};
  net::TcpFlag flags{net::TcpFlag::kNone};
  bool is_retransmission{false};
};

struct PacketTrace {
  std::string label;          ///< e.g. "YouTube/Flash/IE @ Research"
  double encoding_bps{0.0};   ///< ground-truth or estimated video rate
  double duration_s{0.0};     ///< capture duration
  std::vector<PacketRecord> packets;

  [[nodiscard]] bool empty() const { return packets.empty(); }

  /// Payload bytes travelling down (server -> viewer), first transmissions
  /// and retransmissions included.
  [[nodiscard]] std::uint64_t down_payload_bytes() const;

  /// Number of distinct TCP connections observed.
  [[nodiscard]] std::size_t connection_count() const;

  /// Cumulative (time, downloaded bytes) curve of down-direction payload —
  /// the "Download Amount" axis of Figs 1, 2a, 6a, 7a, 10.
  struct CurvePoint {
    double t_s;
    std::uint64_t bytes;
  };
  [[nodiscard]] std::vector<CurvePoint> download_curve() const;

  /// Client receive-window time series from up-direction segments — the
  /// "Receive Window" axis of Figs 2b and 6a.
  struct WindowPoint {
    double t_s;
    std::uint64_t window_bytes;
  };
  [[nodiscard]] std::vector<WindowPoint> receive_window_series() const;

  /// Fraction of down-direction payload bytes that were retransmissions.
  [[nodiscard]] double retransmission_fraction() const;
};

}  // namespace vstream::capture
