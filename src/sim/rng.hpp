// Deterministic random-number streams for simulations.
//
// Every stochastic component takes an `Rng` (or forks a child stream) so a
// whole experiment is reproducible from a single seed, and independent
// components do not perturb each other's draws.
#pragma once

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string_view>

namespace vstream::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed}, seed_{seed} {}

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Derive an independent child stream. The tag keeps forks for different
  /// purposes decorrelated even when forked from the same parent state.
  [[nodiscard]] Rng fork(std::string_view tag);

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p);

  /// Exponential with the given rate (mean 1/rate).
  [[nodiscard]] double exponential(double rate);

  [[nodiscard]] double normal(double mean, double stddev);

  /// Log-normal parameterised by the mean/stddev of the *underlying* normal.
  [[nodiscard]] double lognormal(double mu, double sigma);

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace vstream::sim
