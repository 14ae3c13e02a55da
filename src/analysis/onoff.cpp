#include "analysis/onoff.hpp"

#include "analysis/accumulators.hpp"
#include "stats/descriptive.hpp"

namespace vstream::analysis {

double OnOffAnalysis::overall_rate_bps() const {
  const double span = last_packet_s - first_packet_s;
  if (span <= 0.0) return 0.0;
  return static_cast<double>(total_bytes) * 8.0 / span;
}

double OnOffAnalysis::accumulation_ratio(double encoding_bps) const {
  if (encoding_bps <= 0.0) throw std::invalid_argument{"accumulation_ratio: bad encoding rate"};
  return steady_rate_bps / encoding_bps;
}

double OnOffAnalysis::buffered_playback_s(double encoding_bps) const {
  if (encoding_bps <= 0.0) throw std::invalid_argument{"buffered_playback_s: bad encoding rate"};
  return static_cast<double>(buffering_bytes) * 8.0 / encoding_bps;
}

double OnOffAnalysis::off_time_fraction() const {
  const double span = last_packet_s - first_packet_s;
  if (span <= 0.0) return 0.0;
  double off = 0.0;
  for (const double d : off_durations_s) off += d;
  return off / span;
}

double OnOffAnalysis::median_block_bytes() const {
  if (block_sizes_bytes.empty()) return 0.0;
  return stats::median(block_sizes_bytes);
}

double OnOffAnalysis::median_off_s() const {
  if (off_durations_s.empty()) return 0.0;
  return stats::median(off_durations_s);
}

double OnOffAnalysis::max_off_s() const {
  if (off_durations_s.empty()) return 0.0;
  return stats::max(off_durations_s);
}

OnOffAnalysis analyze_on_off(capture::TraceView trace, const OnOffOptions& options) {
  OnOffAccumulator acc{options};
  for (const auto& p : trace) acc.add(p);
  return acc.finish();
}

std::size_t count_zero_window_episodes(capture::TraceView trace) {
  ZeroWindowAccumulator acc;
  for (const auto& p : trace) acc.add(p);
  return acc.episodes();
}

}  // namespace vstream::analysis
