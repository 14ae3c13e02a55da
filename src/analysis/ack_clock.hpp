// Ack-clock analysis (Section 5.1.5 / Fig 9).
//
// TCP normally paces data by the arrival of ACKs. After an idle OFF period,
// an RFC 5681-compliant sender would restart from a small window and probe
// the path; the paper's key observation is that streaming servers do NOT:
// whole blocks (e.g. the full 64 kB Flash block) arrive back-to-back within
// the first round-trip of an ON period. The estimator below measures the
// bytes received during the first RTT of each steady-state ON period — a
// conservative estimate of the congestion window at the start of the ON
// period, exactly as the paper computes it.
#pragma once

#include <optional>
#include <vector>

#include "analysis/onoff.hpp"
#include "capture/trace_view.hpp"

namespace vstream::analysis {

struct AckClockOptions {
  /// RTT to use. If absent it is estimated from the trace handshake
  /// (client SYN -> server SYN-ACK).
  std::optional<double> rtt_s;
  /// Only ON periods preceded by an OFF of at least this duration count
  /// (the interesting case: did the window survive the idle gap?).
  double min_preceding_off_s{0.15};
};

/// Estimate the RTT from the first SYN/SYN-ACK pair in the trace. Returns
/// nullopt when the trace holds no complete handshake; a SYN-ACK stamped
/// with its SYN's own time completes none. Implemented over the
/// online `HandshakeRttTracker` — one pass, not the seed's quadratic scan.
[[nodiscard]] std::optional<double> estimate_handshake_rtt(capture::TraceView trace);

/// Bytes received within the first RTT of each qualifying ON period (the
/// samples behind the Fig 9 CDF): all down data in [start, start + rtt).
/// One walk over the time-ordered trace, however many windows there are.
[[nodiscard]] std::vector<double> first_rtt_bytes(capture::TraceView trace,
                                                  const OnOffAnalysis& analysis,
                                                  const AckClockOptions& options = {});

}  // namespace vstream::analysis
