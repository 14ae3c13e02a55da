#include "capture/csv.hpp"

#include <fstream>
#include <stdexcept>

namespace vstream::capture {

void write_packets_csv(const PacketTrace& trace, std::ostream& out) {
  out << "t_s,direction,connection,seq,ack,payload_bytes,window_bytes,flags,retransmission\n";
  for (const auto& p : trace.packets) {
    net::TcpSegment s;
    s.flags = p.flags;
    out << p.t_s << ',' << (p.direction == net::Direction::kDown ? "down" : "up") << ','
        << p.connection_id << ',' << p.seq << ',' << p.ack << ',' << p.payload_bytes << ','
        << p.window_bytes << ',' << s.flag_string() << ',' << (p.is_retransmission ? 1 : 0)
        << '\n';
  }
}

void write_packets_csv(const PacketTrace& trace, const std::string& path) {
  std::ofstream out{path, std::ios::trunc};
  if (!out) throw std::runtime_error{"write_packets_csv: cannot open " + path};
  write_packets_csv(trace, out);
}

}  // namespace vstream::capture
