// One-stop session report: everything the paper's methodology extracts from
// a capture, in one struct with a text renderer. This is the API a
// downstream user typically wants — run the analyses with consistent
// options and render or consume the result.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/ack_clock.hpp"
#include "analysis/onoff.hpp"
#include "analysis/periodicity.hpp"
#include "analysis/strategy.hpp"
#include "capture/trace_view.hpp"

namespace vstream::analysis {

/// Session-side fault/recovery accounting (retries, rebuffers, fault drops).
/// Unlike every other report field this is *not* derivable from the packet
/// trace — it is supplied by the session (ReportOptions::resilience, or
/// StreamingReportBuilder::set_resilience once the builder exists) and
/// defaults to all-zero for fault-free captures.
struct ResilienceStats {
  std::uint32_t fetch_retries{0};    ///< request retries after a timeout
  std::uint32_t fetch_timeouts{0};   ///< no-progress watchdog firings
  std::uint32_t fetch_abandoned{0};  ///< fetches completed short (budget spent)
  std::uint32_t rebuffer_count{0};   ///< stalls playback recovered from
  std::uint32_t stall_count{0};
  double stall_time_s{0.0};
  double longest_stall_s{0.0};
  std::uint64_t fault_drops{0};      ///< packets dropped by blackout windows
  std::uint64_t fault_windows{0};    ///< impairment windows that began
  std::size_t rate_switches{0};      ///< adaptive ladder moves (any direction)

  [[nodiscard]] bool any() const {
    return fetch_retries != 0 || fetch_timeouts != 0 || fetch_abandoned != 0 ||
           rebuffer_count != 0 || stall_count != 0 || stall_time_s > 0.0 || fault_drops != 0 ||
           fault_windows != 0 || rate_switches != 0;
  }

  friend bool operator==(const ResilienceStats&, const ResilienceStats&) = default;
};

struct SessionReport {
  std::string label;
  Strategy strategy{Strategy::kNoOnOff};
  std::string rationale;

  // Buffering phase.
  double buffering_end_s{0.0};
  double buffering_mb{0.0};
  std::optional<double> buffered_playback_s;  ///< needs an encoding rate

  // Steady state.
  bool has_steady_state{false};
  double steady_rate_mbps{0.0};
  double median_block_kb{0.0};
  double median_off_s{0.0};
  std::optional<double> accumulation_ratio;
  std::optional<double> cycle_period_s;  ///< autocorrelation estimate

  // Transport.
  std::size_t connections{0};
  std::size_t packets{0};
  double retransmission_pct{0.0};
  std::size_t zero_window_episodes{0};
  std::optional<double> rtt_ms;
  std::optional<double> median_first_rtt_kb;  ///< ack-clock indicator

  double total_mb{0.0};
  double duration_s{0.0};

  // Fault injection & recovery (session-supplied, zero when fault-free).
  ResilienceStats resilience;

  [[nodiscard]] std::string render() const;

  /// Exact field-wise equality — the report must be *identical* to the
  /// composition of the batch analyses, not approximately equal, so the
  /// comparison is deliberately strict.
  friend bool operator==(const SessionReport&, const SessionReport&) = default;
};

struct ReportOptions {
  OnOffOptions onoff;
  /// Encoding rate for playback-time / accumulation-ratio entries; falls
  /// back to the trace's `encoding_bps` when absent.
  std::optional<double> encoding_bps;
  /// Session-side recovery accounting to embed verbatim in the report (the
  /// packet trace cannot supply it). Leave defaulted for fault-free runs.
  ResilienceStats resilience;
};

/// Report over an in-memory trace (view): feeds every record to a
/// `StreamingReportBuilder` (streaming_report.hpp) in one pass, so a stored
/// trace and a live record stream share one implementation and agree
/// exactly on every trace.
[[nodiscard]] SessionReport build_report(capture::TraceView trace,
                                         const ReportOptions& options = {});

}  // namespace vstream::analysis
