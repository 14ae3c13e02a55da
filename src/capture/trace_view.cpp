#include "capture/trace_view.hpp"

#include <set>

namespace vstream::capture {

std::size_t TraceView::count() const {
  if (trace_ == nullptr) return 0;
  if (filter_.pass_through()) return trace_->packets.size();
  std::size_t n = 0;
  for (const auto& p : *this) {
    (void)p;
    ++n;
  }
  return n;
}

const std::string& TraceView::label() const {
  static const std::string kEmpty;
  return trace_ == nullptr ? kEmpty : trace_->label;
}

std::uint64_t TraceView::down_payload_bytes() const {
  std::uint64_t total = 0;
  for (const auto& p : *this) {
    if (p.direction == net::Direction::kDown) total += p.payload_bytes;
  }
  return total;
}

std::size_t TraceView::connection_count() const {
  // Records come in runs of one connection: only an id that differs from
  // the previous record's can be new to the set.
  std::set<std::uint64_t> ids;
  std::uint64_t last_id = 0;
  for (const auto& p : *this) {
    if (ids.empty() || p.connection_id != last_id) ids.insert(p.connection_id);
    last_id = p.connection_id;
  }
  return ids.size();
}

double TraceView::retransmission_fraction() const {
  std::uint64_t total = 0;
  std::uint64_t retx = 0;
  for (const auto& p : *this) {
    if (p.direction != net::Direction::kDown) continue;
    total += p.payload_bytes;
    if (p.is_retransmission) retx += p.payload_bytes;
  }
  return total == 0 ? 0.0 : static_cast<double>(retx) / static_cast<double>(total);
}

std::vector<TraceView::CurvePoint> TraceView::download_curve() const {
  std::vector<CurvePoint> curve;
  std::uint64_t total = 0;
  for (const auto& p : *this) {
    if (p.direction != net::Direction::kDown || p.payload_bytes == 0) continue;
    total += p.payload_bytes;
    curve.push_back(CurvePoint{p.t_s, total});
  }
  return curve;
}

std::vector<TraceView::WindowPoint> TraceView::receive_window_series() const {
  std::vector<WindowPoint> series;
  for (const auto& p : *this) {
    if (p.direction != net::Direction::kUp) continue;
    series.push_back(WindowPoint{p.t_s, p.window_bytes});
  }
  return series;
}

PacketTrace TraceView::materialize() const {
  PacketTrace out;
  if (trace_ == nullptr) return out;
  out.label = trace_->label;
  out.encoding_bps = trace_->encoding_bps;
  out.duration_s = trace_->duration_s;
  out.packets.reserve(trace_->packets.size());
  for (const auto& p : *this) out.packets.push_back(p);
  out.packets.shrink_to_fit();
  return out;
}

}  // namespace vstream::capture
