// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// Components look an instrument up by name once (usually at construction)
// and keep the returned reference/pointer; the hot path is then a single
// predictable branch plus an increment — no hashing, no allocation. A
// registry belongs to one `Simulator`'s world, so parallel simulations
// never share state. `snapshot()` copies everything into a plain struct
// that can be merged across runs and rendered as JSON (through the
// obs/json codec) for machine-readable run telemetry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vstream::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_{0};
};

/// Last-written (or high-water, via `set_max`) scalar.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void set_max(double v) {
    if (v > value_) value_ = v;
  }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_{0.0};
};

/// Histogram over fixed, sorted upper bounds plus an implicit overflow
/// bucket. A sample lands in the first bucket whose bound is >= the value
/// (bounds are inclusive upper edges).
class FixedHistogram {
 public:
  explicit FixedHistogram(std::vector<double> upper_bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// One count per bound, plus the trailing overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const { return counts_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 entries
  std::uint64_t count_{0};
  double sum_{0.0};
};

/// Plain-data copy of a registry's state at one instant.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count{0};
    double sum{0.0};

    /// Percentile estimate at quantile `q` in [0,1], linearly interpolated
    /// within the winning bucket (the first bucket from 0, the last bound
    /// for overflow samples). 0 when the histogram is empty.
    [[nodiscard]] double percentile(double q) const;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Combine another run's snapshot into this one: counters and histogram
  /// buckets add, gauges keep the maximum (gauges here are high-waters).
  /// Throws std::invalid_argument when the same histogram name arrives with
  /// different bucket bounds — adding misaligned buckets would silently
  /// corrupt every percentile downstream.
  void merge_from(const MetricsSnapshot& other);

  [[nodiscard]] std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  /// `upper_bounds` applies only on first creation of `name`.
  FixedHistogram& histogram(const std::string& name, std::vector<double> upper_bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] std::string to_json() const { return snapshot().to_json(); }

 private:
  // std::map keeps element addresses stable across inserts.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, FixedHistogram> histograms_;
};

}  // namespace vstream::obs
