#include "capture/trace.hpp"

#include "capture/trace_view.hpp"

namespace vstream::capture {

std::uint64_t PacketTrace::down_payload_bytes() const {
  std::uint64_t total = 0;
  for (const auto& p : packets) {
    if (p.direction == net::Direction::kDown) total += p.payload_bytes;
  }
  return total;
}

std::size_t PacketTrace::connection_count() const { return TraceView{*this}.connection_count(); }

std::vector<PacketTrace::CurvePoint> PacketTrace::download_curve() const {
  std::vector<CurvePoint> curve;
  std::uint64_t total = 0;
  for (const auto& p : packets) {
    if (p.direction != net::Direction::kDown || p.payload_bytes == 0) continue;
    total += p.payload_bytes;
    curve.push_back(CurvePoint{p.t_s, total});
  }
  return curve;
}

std::vector<PacketTrace::WindowPoint> PacketTrace::receive_window_series() const {
  std::vector<WindowPoint> series;
  for (const auto& p : packets) {
    if (p.direction != net::Direction::kUp) continue;
    series.push_back(WindowPoint{p.t_s, p.window_bytes});
  }
  return series;
}

double PacketTrace::retransmission_fraction() const {
  std::uint64_t total = 0;
  std::uint64_t retx = 0;
  for (const auto& p : packets) {
    if (p.direction != net::Direction::kDown) continue;
    total += p.payload_bytes;
    if (p.is_retransmission) retx += p.payload_bytes;
  }
  return total == 0 ? 0.0 : static_cast<double>(retx) / static_cast<double>(total);
}

}  // namespace vstream::capture
