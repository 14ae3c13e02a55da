// Empirical cumulative distribution functions.
//
// Every distribution figure in the paper (block sizes, accumulation ratios,
// buffered playback time, ack-clock bytes, Netflix buffering amounts) is a
// CDF; this class evaluates, inverts and renders them.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace vstream::stats {

class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::span<const double> samples);

  void add(double x);
  /// Sort pending samples; called lazily by the accessors, or explicitly.
  void finalize();

  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }

  /// P(X <= x).
  [[nodiscard]] double at(double x) const;

  /// Inverse CDF (quantile) with linear interpolation, q in [0,1].
  [[nodiscard]] double inverse(double q) const;

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Step points (x, F(x)) suitable for plotting or textual tables.
  struct Point {
    double x;
    double f;
  };
  [[nodiscard]] std::vector<Point> points() const;

  /// Evaluate the CDF at `n` evenly spaced x positions spanning [lo, hi].
  [[nodiscard]] std::vector<Point> sampled(double lo, double hi, std::size_t n) const;

  /// Render a one-line summary "p10=.. p25=.. p50=.. p75=.. p90=..".
  [[nodiscard]] std::string summary() const;

  [[nodiscard]] const std::vector<double>& sorted_samples() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_{true};
};

}  // namespace vstream::stats
