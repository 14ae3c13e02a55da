// Descriptive statistics over samples.
//
// These are the primitives the paper's analysis uses: means/medians of block
// sizes and accumulation ratios, quantiles for CDF summaries, and Pearson
// correlation (buffering amount vs encoding rate, download rate vs encoding
// rate).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vstream::stats {

[[nodiscard]] double mean(std::span<const double> xs);

/// Unbiased (n-1) sample variance; 0 for fewer than two samples.
[[nodiscard]] double variance(std::span<const double> xs);

[[nodiscard]] double stddev(std::span<const double> xs);

[[nodiscard]] double min(std::span<const double> xs);
[[nodiscard]] double max(std::span<const double> xs);

/// Quantile with linear interpolation between order statistics; q in [0,1].
[[nodiscard]] double quantile(std::span<const double> xs, double q);

[[nodiscard]] double median(std::span<const double> xs);

/// Pearson product-moment correlation coefficient; 0 when either side is
/// constant or the spans are shorter than two samples.
[[nodiscard]] double pearson_correlation(std::span<const double> xs, std::span<const double> ys);

/// Numerically stable online accumulator (Welford). Mergeable.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // unbiased
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

}  // namespace vstream::stats
