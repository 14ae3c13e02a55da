#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vstream::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (const double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument{"stats::min: empty sample"};
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument{"stats::max: empty sample"};
  return *std::max_element(xs.begin(), xs.end());
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument{"stats::quantile: empty sample"};
  if (q < 0.0 || q > 1.0) throw std::invalid_argument{"stats::quantile: q outside [0,1]"};
  std::vector<double> sorted{xs.begin(), xs.end()};
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double pearson_correlation(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size())
    throw std::invalid_argument{"stats::pearson_correlation: size mismatch"};
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

}  // namespace vstream::stats
