#include "sim/rng.hpp"

#include <algorithm>

namespace vstream::sim {
namespace {

// FNV-1a over the tag, used to decorrelate forked streams.
std::uint64_t hash_tag(std::string_view tag) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : tag) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

Rng Rng::fork(std::string_view tag) {
  const std::uint64_t child_seed = engine_() ^ hash_tag(tag);
  return Rng{child_seed};
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument{"Rng::uniform: lo > hi"};
  std::uniform_real_distribution<double> d{lo, hi};
  return d(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument{"Rng::uniform_int: lo > hi"};
  std::uniform_int_distribution<std::int64_t> d{lo, hi};
  return d(engine_);
}

bool Rng::bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  std::bernoulli_distribution d{p};
  return d(engine_);
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument{"Rng::exponential: rate must be > 0"};
  std::exponential_distribution<double> d{rate};
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d{mean, stddev};
  return d(engine_);
}

double Rng::lognormal(double mu, double sigma) {
  std::lognormal_distribution<double> d{mu, sigma};
  return d(engine_);
}

}  // namespace vstream::sim
