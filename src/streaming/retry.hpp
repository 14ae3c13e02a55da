// Request-level retry policy for the streaming fetch path.
//
// Under fault injection (net/dynamics.hpp) a TCP connection can go silent
// for the whole length of a blackout; the transport keeps retransmitting on
// its RTO schedule forever, so recovery has to come from the application.
// `RetryPolicy` bounds that recovery: a no-progress watchdog per fetch, a
// bounded exponential backoff between attempts, and a retry budget after
// which the fetch is abandoned (the client moves on instead of hanging).
// All timing is sim::Duration on the simulation clock — never wall-clock —
// so a faulted run stays digest-deterministic.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/time.hpp"

namespace vstream::streaming {

struct RetryPolicy {
  /// Master switch; disabled reproduces the pre-resilience behaviour
  /// (a fetch stuck in a blackout stays stuck).
  bool enabled{true};
  /// A fetch that makes no read progress for this long times out and is
  /// retried on a fresh connection. Must comfortably exceed the server's
  /// pacing gaps, or healthy OFF periods would count as hangs.
  sim::Duration request_timeout{sim::Duration::seconds(8.0)};
  /// Backoff before retry k (1-based) is
  /// min(backoff_initial * 2^(k-1), backoff_max).
  sim::Duration backoff_initial{sim::Duration::millis(500)};
  sim::Duration backoff_max{sim::Duration::seconds(8.0)};
  /// Retries per fetch before giving up and completing it short.
  std::uint32_t max_retries{6};

  [[nodiscard]] sim::Duration backoff_for(std::uint32_t retry) const {
    sim::Duration d = backoff_initial;
    for (std::uint32_t i = 1; i < retry && d < backoff_max; ++i) d = d + d;
    return d < backoff_max ? d : backoff_max;
  }

  void validate() const {
    if (request_timeout <= sim::Duration::zero()) {
      throw std::invalid_argument{"RetryPolicy: request timeout must be positive"};
    }
    if (backoff_initial <= sim::Duration::zero() || backoff_max < backoff_initial) {
      throw std::invalid_argument{"RetryPolicy: backoff bounds out of order"};
    }
  }

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

}  // namespace vstream::streaming
