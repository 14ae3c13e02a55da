// Fixed-width histogram with textual rendering.
//
// Used by benches to show block-size and rate distributions as ASCII bars
// next to the CDF tables, and by tests to locate distribution modes (e.g.
// the 64 kB dominant Flash block size).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vstream::stats {

class Histogram {
 public:
  /// Bins cover [lo, hi) in `bins` equal widths, plus under/overflow bins.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::uint64_t count_in_bin(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Centre x-value of bin i.
  [[nodiscard]] double bin_center(std::size_t i) const;

  /// Centre of the most populated bin (the distribution's mode).
  [[nodiscard]] double mode() const;

  /// Multi-line ASCII rendering, one bar per bin.
  [[nodiscard]] std::string render(std::size_t bar_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_{0};
  std::uint64_t overflow_{0};
  std::uint64_t total_{0};
};

}  // namespace vstream::stats
