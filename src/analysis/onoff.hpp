// ON-OFF cycle analysis of a packet trace (the paper's core methodology).
//
// The steady-state phase of throttled streaming is a sequence of ON periods
// (a block transferred at the end-to-end available bandwidth) separated by
// idle OFF periods. Following Section 5:
//   - an OFF period is a gap in down-direction data longer than a threshold;
//   - the buffering phase ends at the start of the *first* OFF period (the
//     paper notes this heuristic is loss-sensitive, an artifact we keep);
//   - block size = bytes transferred within one steady-state ON period;
//   - accumulation ratio = steady-state average download rate divided by
//     the video encoding rate.
#pragma once

#include <cstdint>
#include <vector>

#include "capture/trace_view.hpp"

namespace vstream::analysis {

struct OnPeriod {
  double start_s{0.0};
  double end_s{0.0};
  std::uint64_t bytes{0};
  std::size_t packets{0};

  [[nodiscard]] double duration_s() const { return end_s - start_s; }
};

/// Data packets smaller than this are treated as keep-alive/zero-window
/// probes: they do not start or extend ON periods (their bytes still count
/// toward the total).
inline constexpr std::uint32_t kMinDataPayloadBytes = 64;

struct OnOffOptions {
  /// Minimum idle gap between down-direction data packets that counts as an
  /// OFF period. Must exceed a few RTTs yet stay below the shortest real
  /// OFF period (the paper saw OFFs from 0.2 s).
  double gap_threshold_s{0.15};
};

struct OnOffAnalysis {
  std::vector<OnPeriod> on_periods;
  std::vector<double> off_durations_s;  ///< gap i sits between ON i and ON i+1

  double buffering_end_s{0.0};       ///< start of the first OFF period
  std::uint64_t buffering_bytes{0};  ///< downloaded during the buffering phase
  double steady_rate_bps{0.0};       ///< average down rate after buffering
  std::vector<double> block_sizes_bytes;  ///< per steady-state ON period

  std::uint64_t total_bytes{0};
  double first_packet_s{0.0};
  double last_packet_s{0.0};

  /// True when the trace shows a steady-state (throttled) phase at all.
  [[nodiscard]] bool has_steady_state() const { return !off_durations_s.empty(); }

  /// Fraction of the capture spent in OFF periods. Bulk transfers with the
  /// occasional loss-recovery stall have a tiny OFF fraction; throttled
  /// streams idle most of the time.
  [[nodiscard]] double off_time_fraction() const;

  /// Average download rate over the whole capture.
  [[nodiscard]] double overall_rate_bps() const;

  /// Steady-state rate over encoding rate (paper's accumulation ratio).
  [[nodiscard]] double accumulation_ratio(double encoding_bps) const;

  /// Buffered playback time: buffering bytes divided by the encoding rate
  /// (the y-axis of Fig 3a).
  [[nodiscard]] double buffered_playback_s(double encoding_bps) const;

  [[nodiscard]] double median_block_bytes() const;
  [[nodiscard]] double median_off_s() const;
  [[nodiscard]] double max_off_s() const;
};

/// Run the ON/OFF analysis over all down-direction data packets of the
/// trace (connections aggregated, as the paper aggregates the video flow).
/// Implemented as a walk feeding an `OnOffAccumulator`, so the batch and
/// streaming paths share one state machine.
[[nodiscard]] OnOffAnalysis analyze_on_off(capture::TraceView trace,
                                           const OnOffOptions& options = {});

/// Count episodes where the client's advertised window reached zero — the
/// signature of client-side pull throttling in Figs 2(b) and 6(a).
[[nodiscard]] std::size_t count_zero_window_episodes(capture::TraceView trace);

}  // namespace vstream::analysis
