#include "analysis/flows.hpp"

#include <algorithm>
#include <cstdio>

#include "analysis/accumulators.hpp"

namespace vstream::analysis {

FlowTable build_flow_table(capture::TraceView trace) {
  FlowAccumulator acc;
  for (const auto& p : trace) acc.add(p);
  return acc.finish();
}

const FlowRecord* FlowTable::find(std::uint64_t connection_id) const {
  for (const auto& f : flows) {
    if (f.connection_id == connection_id) return &f;
  }
  return nullptr;
}

std::uint64_t FlowTable::max_down_bytes() const {
  std::uint64_t best = 0;
  for (const auto& f : flows) best = std::max(best, f.down_payload_bytes);
  return best;
}

std::uint64_t FlowTable::min_down_bytes() const {
  if (flows.empty()) return 0;
  std::uint64_t best = flows.front().down_payload_bytes;
  for (const auto& f : flows) best = std::min(best, f.down_payload_bytes);
  return best;
}

std::string FlowTable::render() const {
  std::string out;
  char line[200];
  std::snprintf(line, sizeof line, "%6s %9s %9s %12s %10s %8s %6s\n", "conn", "start[s]",
                "end[s]", "down[kB]", "retx[%]", "rtt[ms]", "fin");
  out += line;
  for (const auto& f : flows) {
    std::snprintf(line, sizeof line, "%6llu %9.2f %9.2f %12.1f %10.2f %8s %6s\n",
                  static_cast<unsigned long long>(f.connection_id), f.first_packet_s,
                  f.last_packet_s, static_cast<double>(f.down_payload_bytes) / 1024.0,
                  f.retransmission_fraction() * 100.0,
                  f.handshake_rtt_s.has_value()
                      ? std::to_string(static_cast<int>(*f.handshake_rtt_s * 1000.0)).c_str()
                      : "-",
                  f.saw_fin ? "yes" : "no");
    out += line;
  }
  return out;
}

}  // namespace vstream::analysis
