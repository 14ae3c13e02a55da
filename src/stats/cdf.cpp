#include "stats/cdf.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace vstream::stats {

EmpiricalCdf::EmpiricalCdf(std::span<const double> samples)
    : samples_{samples.begin(), samples.end()}, sorted_{false} {
  finalize();
}

void EmpiricalCdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalCdf::finalize() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

const std::vector<double>& EmpiricalCdf::sorted_samples() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return samples_;
}

double EmpiricalCdf::at(double x) const {
  if (samples_.empty()) throw std::logic_error{"EmpiricalCdf::at: empty CDF"};
  const auto& s = sorted_samples();
  const auto it = std::upper_bound(s.begin(), s.end(), x);
  return static_cast<double>(it - s.begin()) / static_cast<double>(s.size());
}

double EmpiricalCdf::inverse(double q) const {
  if (samples_.empty()) throw std::logic_error{"EmpiricalCdf::inverse: empty CDF"};
  if (q < 0.0 || q > 1.0) throw std::invalid_argument{"EmpiricalCdf::inverse: q outside [0,1]"};
  const auto& s = sorted_samples();
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

double EmpiricalCdf::min() const {
  if (samples_.empty()) throw std::logic_error{"EmpiricalCdf::min: empty CDF"};
  return sorted_samples().front();
}

double EmpiricalCdf::max() const {
  if (samples_.empty()) throw std::logic_error{"EmpiricalCdf::max: empty CDF"};
  return sorted_samples().back();
}

std::vector<EmpiricalCdf::Point> EmpiricalCdf::points() const {
  const auto& s = sorted_samples();
  std::vector<Point> pts;
  pts.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    pts.push_back(Point{s[i], static_cast<double>(i + 1) / static_cast<double>(s.size())});
  }
  return pts;
}

std::vector<EmpiricalCdf::Point> EmpiricalCdf::sampled(double lo, double hi,
                                                       std::size_t n) const {
  if (n < 2) throw std::invalid_argument{"EmpiricalCdf::sampled: need n >= 2"};
  if (hi < lo) throw std::invalid_argument{"EmpiricalCdf::sampled: hi < lo"};
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
    pts.push_back(Point{x, at(x)});
  }
  return pts;
}

std::string EmpiricalCdf::summary() const {
  if (samples_.empty()) return "(empty)";
  char buf[160];
  std::snprintf(buf, sizeof buf, "p10=%.3g p25=%.3g p50=%.3g p75=%.3g p90=%.3g", inverse(0.10),
                inverse(0.25), inverse(0.50), inverse(0.75), inverse(0.90));
  return buf;
}

}  // namespace vstream::stats
