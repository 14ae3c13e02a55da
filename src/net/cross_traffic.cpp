#include "net/cross_traffic.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace vstream::net {

namespace {

/// Bursts arrive as a Poisson process with this rate.
constexpr double kBurstsPerS{20.0};
/// Packet size of the competing traffic.
constexpr std::uint32_t kPacketBytes{1460};

}  // namespace

CrossTraffic::CrossTraffic(sim::Simulator& sim, Link& link, Config config, sim::Rng rng)
    : sim_{sim}, link_{link}, config_{config}, rng_{std::move(rng)} {
  if (config_.mean_rate_bps <= 0.0) {
    throw std::invalid_argument{"CrossTraffic: mean rate must be positive"};
  }
}

void CrossTraffic::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void CrossTraffic::stop() {
  running_ = false;
  next_.cancel();
}

void CrossTraffic::schedule_next() {
  if (!running_) return;
  const double gap_s = rng_.exponential(kBurstsPerS);
  next_ = sim_.schedule_after(sim::Duration::seconds(gap_s), [this] {
    inject_burst();
    schedule_next();
  });
}

void CrossTraffic::inject_burst() {
  // Burst size chosen so mean_rate = kBurstsPerS * E[burst_bytes] * 8.
  const double mean_burst_bytes = config_.mean_rate_bps / 8.0 / kBurstsPerS;
  const double mean_packets = std::max(1.0, mean_burst_bytes / kPacketBytes);
  // Geometric-ish burst length via an exponential draw.
  const auto packets = static_cast<std::uint64_t>(
      std::ceil(rng_.exponential(1.0 / mean_packets)));
  for (std::uint64_t i = 0; i < packets; ++i) {
    TcpSegment filler;
    filler.connection_id = config_.connection_id;
    filler.payload_bytes = kPacketBytes;
    filler.flags = TcpFlag::kAck;
    // Offered regardless of queue state; drops are the point.
    if (link_.send(filler)) {
      ++packets_;
      bytes_ += kPacketBytes;
    }
  }
}

}  // namespace vstream::net
