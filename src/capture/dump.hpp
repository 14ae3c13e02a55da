// tcpdump-style textual rendering of packet traces.
//
// Renders records in the familiar one-line-per-packet format so a trace
// (simulated or loaded from pcap) can be eyeballed the way the paper's
// authors eyeballed theirs:
//   0.123456 10.0.0.1:80 > 192.168.1.2:10001: Flags [P.], seq 1:1461,
//   ack 1, win 262144, length 1460
#pragma once

#include <string>

#include "capture/trace.hpp"

namespace vstream::capture {

/// One tcpdump-style line for a record.
[[nodiscard]] std::string format_packet(const PacketRecord& record);

}  // namespace vstream::capture
