#include "capture/dump.hpp"

#include <cstdio>

namespace vstream::capture {

std::string format_packet(const PacketRecord& r) {
  // Addresses mirror the pcap writer's encoding: server 10.0.0.(1+host),
  // client 192.168.1.2 with the connection id in the port.
  char server[32];
  std::snprintf(server, sizeof server, "10.0.0.%u:80", 1U + r.host);
  char client[32];
  std::snprintf(client, sizeof client, "192.168.1.2:%llu",
                10000ULL + static_cast<unsigned long long>(r.connection_id));

  std::string flags;
  if (net::has_flag(r.flags, net::TcpFlag::kSyn)) flags += 'S';
  if (net::has_flag(r.flags, net::TcpFlag::kFin)) flags += 'F';
  if (net::has_flag(r.flags, net::TcpFlag::kRst)) flags += 'R';
  if (net::has_flag(r.flags, net::TcpFlag::kPsh)) flags += 'P';
  if (net::has_flag(r.flags, net::TcpFlag::kAck)) flags += '.';
  if (flags.empty()) flags = "none";

  char line[256];
  const bool down = r.direction == net::Direction::kDown;
  if (r.payload_bytes > 0) {
    std::snprintf(line, sizeof line,
                  "%11.6f %s > %s: Flags [%s], seq %llu:%llu, ack %llu, win %llu, length %u%s",
                  r.t_s, down ? server : client, down ? client : server, flags.c_str(),
                  static_cast<unsigned long long>(r.seq),
                  static_cast<unsigned long long>(r.seq + r.payload_bytes),
                  static_cast<unsigned long long>(r.ack),
                  static_cast<unsigned long long>(r.window_bytes), r.payload_bytes,
                  r.is_retransmission ? " (retransmission)" : "");
  } else {
    std::snprintf(line, sizeof line,
                  "%11.6f %s > %s: Flags [%s], ack %llu, win %llu, length 0", r.t_s,
                  down ? server : client, down ? client : server, flags.c_str(),
                  static_cast<unsigned long long>(r.ack),
                  static_cast<unsigned long long>(r.window_bytes));
  }
  return line;
}

}  // namespace vstream::capture
