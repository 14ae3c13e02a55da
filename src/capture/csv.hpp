// CSV export of packet traces, for external plotting of the figures the
// benches print as tables.
#pragma once

#include <ostream>
#include <string>

#include "capture/trace.hpp"

namespace vstream::capture {

/// One row per packet: t_s,dir,conn,seq,ack,payload,window,flags,retx
void write_packets_csv(const PacketTrace& trace, std::ostream& out);
void write_packets_csv(const PacketTrace& trace, const std::string& path);

}  // namespace vstream::capture
