#include "capture/recorder.hpp"

#include <algorithm>
#include <cmath>

#include "obs/context.hpp"

namespace vstream::capture {

TraceRecorder::TraceRecorder(sim::Simulator& sim, net::Path& path) : sim_{sim}, path_{&path} {
  path_->set_tap([this](sim::SimTime t, const net::TcpSegment& s, net::Direction d,
                        net::LinkEvent e) { on_event(t, s, d, e); });
}

TraceRecorder::~TraceRecorder() { detach(); }

void TraceRecorder::detach() {
  if (path_ != nullptr) {
    path_->set_tap({});
    path_ = nullptr;
  }
}

void TraceRecorder::reserve_for(double duration_s, double down_bps) {
  if (duration_s <= 0.0 || down_bps <= 0.0 || !store_packets_) return;
  // Data segments at full rate, roughly one viewer ACK per data segment,
  // plus slack for retransmissions and control traffic. An over-estimate
  // only costs unused capacity until `take()`; an under-estimate costs the
  // realloc cascade this hint exists to avoid.
  constexpr double kPayloadBytesPerPacket = 1460.0;
  constexpr double kPacketsPerDataSegment = 2.2;
  constexpr std::size_t kReserveCap = std::size_t{1} << 22;  // 4 Mi records ~ 192 MB
  const double data_segments = duration_s * down_bps / 8.0 / kPayloadBytesPerPacket;
  const auto expected =
      static_cast<std::size_t>(std::ceil(data_segments * kPacketsPerDataSegment));
  trace_.packets.reserve(std::min(expected, kReserveCap));
}

void TraceRecorder::publish_trace_bytes() {
  if (auto* obs = obs::context_of(sim_)) {
    obs->metrics().gauge("capture.trace_bytes")
        .set_max(static_cast<double>(trace_.packets.size() * sizeof(PacketRecord)));
  }
}

void TraceRecorder::stop() {
  recording_ = false;
  trace_.duration_s = last_t_s_ - (first_t_s_ < 0.0 ? 0.0 : first_t_s_);
  publish_trace_bytes();
}

void TraceRecorder::on_event(sim::SimTime t, const net::TcpSegment& s, net::Direction d,
                             net::LinkEvent e) {
  if (!recording_) return;
  // Viewer vantage: down segments are seen on delivery, up segments when
  // the viewer's stack puts them on the wire.
  const bool seen = (d == net::Direction::kDown && e == net::LinkEvent::kDeliver) ||
                    (d == net::Direction::kUp && e == net::LinkEvent::kTransmit);
  if (!seen) return;

  const double ts = t.to_seconds();
  if (first_t_s_ < 0.0) first_t_s_ = ts;
  last_t_s_ = ts;

  PacketRecord r;
  r.t_s = ts;
  r.direction = d;
  r.connection_id = s.connection_id;
  r.host = s.host;
  r.seq = s.seq;
  r.ack = s.ack;
  r.payload_bytes = s.payload_bytes;
  r.window_bytes = s.window_bytes;
  r.flags = s.flags;
  r.is_retransmission = s.is_retransmission;
  if (store_packets_) trace_.packets.push_back(r);
  if (sink_) sink_(r);
}

PacketTrace TraceRecorder::take() {
  stop();
  PacketTrace out = std::move(trace_);
  trace_ = PacketTrace{};
  first_t_s_ = -1.0;
  return out;
}

}  // namespace vstream::capture
