#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"

namespace vstream::obs {

FixedHistogram::FixedHistogram(std::vector<double> upper_bounds)
    : bounds_{std::move(upper_bounds)} {
  if (bounds_.empty()) throw std::invalid_argument{"FixedHistogram: no buckets"};
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument{"FixedHistogram: bounds must be sorted"};
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void FixedHistogram::observe(double v) {
  // First bucket whose inclusive upper edge admits the value; everything
  // above the last bound lands in the overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name,
                                           std::vector<double> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, FixedHistogram{std::move(upper_bounds)}).first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters.emplace(name, c.value());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace(name, g.value());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = h.bounds();
    data.counts = h.counts();
    data.count = h.count();
    data.sum = h.sum();
    snap.histograms.emplace(name, std::move(data));
  }
  return snap;
}

void MetricsSnapshot::merge_from(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) {
    auto [it, inserted] = gauges.emplace(name, v);
    if (!inserted) it->second = std::max(it->second, v);
  }
  for (const auto& [name, h] : other.histograms) {
    auto [it, inserted] = histograms.emplace(name, h);
    if (inserted) continue;
    auto& mine = it->second;
    if (mine.bounds != h.bounds || mine.counts.size() != h.counts.size()) {
      throw std::invalid_argument{"MetricsSnapshot::merge_from: histogram '" + name +
                                  "' bucket layout differs between snapshots; refusing to "
                                  "misalign buckets"};
    }
    for (std::size_t i = 0; i < mine.counts.size(); ++i) {
      mine.counts[i] += h.counts[i];
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
}

double MetricsSnapshot::HistogramData::percentile(double q) const {
  if (count == 0 || counts.empty() || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (in_bucket <= 0.0) continue;
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    // Overflow bucket has no upper edge: clamp to the last known bound.
    if (i >= bounds.size()) return bounds.back();
    const double upper = bounds[i];
    // The first bucket interpolates from 0 (our measured quantities are
    // non-negative); negative bounds fall back to the edge itself.
    const double lower = i == 0 ? std::min(0.0, upper) : bounds[i - 1];
    const double fraction = (rank - cumulative) / in_bucket;
    return lower + (upper - lower) * fraction;
  }
  return bounds.back();
}

namespace {

/// Gauges, bounds, sums and percentiles print with every bit of the double.
constexpr json::Format kDigits{17};

}  // namespace

std::string MetricsSnapshot::to_json() const {
  json::Object counters_json;
  for (const auto& [name, v] : counters) counters_json.integer(name, v);
  json::Object gauges_json;
  for (const auto& [name, v] : gauges) gauges_json.number(name, v, kDigits);
  json::Object histograms_json;
  for (const auto& [name, h] : histograms) {
    json::Array bounds;
    for (const double b : h.bounds) bounds.number(b, kDigits);
    json::Array counts;
    for (const std::uint64_t c : h.counts) counts.integer(c);
    histograms_json.raw(name, json::Object{}
                                  .raw("bounds", bounds.close())
                                  .raw("counts", counts.close())
                                  .integer("count", h.count)
                                  .number("sum", h.sum, kDigits)
                                  .number("p50", h.percentile(0.50), kDigits)
                                  .number("p90", h.percentile(0.90), kDigits)
                                  .number("p99", h.percentile(0.99), kDigits)
                                  .close());
  }
  return json::Object{}
      .raw("counters", counters_json.close())
      .raw("gauges", gauges_json.close())
      .raw("histograms", histograms_json.close())
      .close();
}

}  // namespace vstream::obs
