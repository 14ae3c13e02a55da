#include "stats/histogram.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace vstream::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_{lo}, hi_{hi} {
  if (bins == 0) throw std::invalid_argument{"Histogram: need at least one bin"};
  if (hi <= lo) throw std::invalid_argument{"Histogram: hi must exceed lo"};
  counts_.assign(bins, 0);
  width_ = (hi - lo) / static_cast<double>(bins);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const auto i = static_cast<std::size_t>((x - lo_) / width_);
  ++counts_[std::min(i, counts_.size() - 1)];
}

double Histogram::bin_center(std::size_t i) const {
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double Histogram::mode() const {
  const auto it = std::max_element(counts_.begin(), counts_.end());
  return bin_center(static_cast<std::size_t>(it - counts_.begin()));
}

std::string Histogram::render(std::size_t bar_width) const {
  const std::uint64_t peak = counts_.empty()
                                 ? 0
                                 : *std::max_element(counts_.begin(), counts_.end());
  std::string out;
  char line[256];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t bar =
        peak == 0 ? 0
                  : static_cast<std::size_t>(static_cast<double>(counts_[i]) /
                                             static_cast<double>(peak) *
                                             static_cast<double>(bar_width));
    std::snprintf(line, sizeof line, "%12.4g | %-*s %llu\n", bin_center(i),
                  static_cast<int>(bar_width), std::string(bar, '#').c_str(),
                  static_cast<unsigned long long>(counts_[i]));
    out += line;
  }
  return out;
}

}  // namespace vstream::stats
