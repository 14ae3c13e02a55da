#include "model/interruption.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace vstream::model {
namespace {

void validate(const InterruptionParams& p) {
  if (p.encoding_bps <= 0.0) throw std::invalid_argument{"interruption: bad encoding rate"};
  if (p.duration_s <= 0.0) throw std::invalid_argument{"interruption: bad duration"};
  if (p.buffered_playback_s < 0.0) throw std::invalid_argument{"interruption: negative B'"};
  if (p.accumulation_ratio < 1.0) {
    throw std::invalid_argument{"interruption: accumulation ratio must be >= 1"};
  }
  if (p.beta <= 0.0 || p.beta >= 1.0) throw std::invalid_argument{"interruption: beta in (0,1)"};
}

}  // namespace

bool downloads_whole_video_before_interruption(const InterruptionParams& p) {
  validate(p);
  // Negation of Eq (7): B' >= L (1 - k beta) means the download finishes
  // before the viewer reaches beta L.
  return p.buffered_playback_s >= p.duration_s * (1.0 - p.accumulation_ratio * p.beta);
}

double critical_duration_s(double buffered_playback_s, double accumulation_ratio, double beta) {
  const double denom = 1.0 - accumulation_ratio * beta;
  if (denom <= 0.0) {
    // k beta >= 1: the download outruns every viewer; every video is fully
    // downloaded regardless of duration.
    return std::numeric_limits<double>::infinity();
  }
  return buffered_playback_s / denom;
}

double unused_bytes(const InterruptionParams& p) {
  validate(p);
  const double tau = p.beta * p.duration_s;                    // watch time
  const double bytes_per_s = p.encoding_bps / 8.0;
  const double buffered = p.buffered_playback_s * bytes_per_s; // B, bytes
  const double rate = p.accumulation_ratio * bytes_per_s;      // G, bytes/s
  const double size = p.duration_s * bytes_per_s;              // e L, bytes
  const double downloaded = std::min(buffered + rate * tau, size);
  const double watched = bytes_per_s * tau;
  return std::max(0.0, downloaded - watched);
}

double wasted_bandwidth_bps(double lambda_per_s, const InterruptionParams& p) {
  if (lambda_per_s <= 0.0) throw std::invalid_argument{"wasted_bandwidth_bps: bad lambda"};
  return lambda_per_s * unused_bytes(p) * 8.0;
}

WasteEstimate estimate_wasted_bandwidth(const WasteMonteCarloConfig& config) {
  if (config.draws == 0) throw std::invalid_argument{"estimate_wasted_bandwidth: zero draws"};
  sim::Rng rng{config.seed};
  const auto draw_e = config.draw_encoding_bps
                          ? config.draw_encoding_bps
                          : [](sim::Rng&) { return 1e6; };
  const auto draw_l = config.draw_duration_s ? config.draw_duration_s
                                             : [](sim::Rng&) { return 300.0; };
  const auto draw_b = config.draw_beta ? config.draw_beta : [](sim::Rng&) { return 0.2; };

  double waste_sum = 0.0;
  double useful_sum = 0.0;
  for (std::size_t i = 0; i < config.draws; ++i) {
    InterruptionParams p;
    p.encoding_bps = draw_e(rng);
    p.duration_s = draw_l(rng);
    p.buffered_playback_s = config.buffered_playback_s;
    p.accumulation_ratio = config.accumulation_ratio;
    p.beta = std::clamp(draw_b(rng), 1e-6, 1.0 - 1e-6);
    waste_sum += unused_bytes(p) * 8.0;
    useful_sum += p.encoding_bps * p.beta * p.duration_s;
  }
  WasteEstimate est;
  const auto n = static_cast<double>(config.draws);
  est.wasted_bps = config.lambda_per_s * waste_sum / n;
  est.useful_bps = config.lambda_per_s * useful_sum / n;
  const double total = est.wasted_bps + est.useful_bps;
  est.waste_fraction = total > 0.0 ? est.wasted_bps / total : 0.0;
  return est;
}

}  // namespace vstream::model
