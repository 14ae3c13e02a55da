// TCP endpoint tuning knobs.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace vstream::tcp {

struct TcpOptions {
  std::uint32_t mss{1460};

  /// Server-host tag stamped on every segment of the connection (0 = video
  /// CDN); lets trace analyses separate video from auxiliary traffic the
  /// way the paper filtered by server address.
  std::uint8_t host_tag{0};

  /// Receive buffer capacity used for window advertisements. Client pull
  /// throttling (IE/Chrome HTML5) works through this: the advertised window
  /// collapses to zero when the application stops reading.
  std::uint64_t recv_buffer_bytes{256 * 1024};

  /// Initial congestion window in segments (2011-era CDN servers commonly
  /// used 10; RFC 3390 allows 4).
  std::uint32_t initial_cwnd_segments{10};

  /// RFC 5681 §4.1: restart the congestion window after an idle period of
  /// one RTO. The paper observes (Fig 9) that streaming servers do NOT do
  /// this — blocks are sent back-to-back without an ack clock — so the
  /// default is off; the Fig 9 ablation turns it on.
  bool reset_cwnd_after_idle{false};

  sim::Duration initial_rto{sim::Duration::seconds(1.0)};
  sim::Duration min_rto{sim::Duration::millis(200)};
};

/// Per-endpoint transfer statistics, used by the analysis layer and tests.
struct TcpStats {
  std::uint64_t bytes_sent{0};          ///< payload bytes, first transmissions
  std::uint64_t bytes_retransmitted{0}; ///< payload bytes resent
  std::uint64_t segments_sent{0};
  std::uint64_t segments_retransmitted{0};
  std::uint64_t fast_retransmits{0};
  std::uint64_t timeouts{0};
  std::uint64_t acks_received{0};
  std::uint64_t bytes_received{0};  ///< in-order payload bytes delivered
  std::uint64_t dup_acks_received{0};
  double last_srtt_s{0.0};

  [[nodiscard]] double retransmission_fraction() const {
    const auto total = bytes_sent + bytes_retransmitted;
    return total == 0 ? 0.0
                      : static_cast<double>(bytes_retransmitted) / static_cast<double>(total);
  }
};

}  // namespace vstream::tcp
