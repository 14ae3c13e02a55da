// Deterministic random-number streams for simulations.
//
// Every stochastic component takes an `Rng` (or forks a child stream) so a
// whole experiment is reproducible from a single seed, and independent
// components do not perturb each other's draws.
//
// The engine is MT19937-64, output for output the same as the standard
// library's 64-bit Mersenne Twister with the same seed, but a stream pays
// only for the draws it makes: construction stores the seed, the 312-word
// state is allocated on the first draw, and the first block is seeded and
// twisted only as far as each draw needs. A stream that is forked but
// never drawn from is 16 bytes (DESIGN §8).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

namespace vstream::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  ~Rng();

  // A copy would replay its parent's draws, so streams are only moved.
  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) noexcept;
  Rng& operator=(Rng&&) noexcept;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Derive an independent child stream. The tag keeps forks for different
  /// purposes decorrelated even when forked from the same parent state.
  [[nodiscard]] Rng fork(std::string_view tag);

  /// Uniform double in [lo, hi). The bounds and their span must be finite.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]; NaN throws).
  [[nodiscard]] bool bernoulli(double p);

  /// Exponential with the given rate (mean 1/rate); rate must be > 0.
  [[nodiscard]] double exponential(double rate);

  /// Normal; stddev must be > 0.
  [[nodiscard]] double normal(double mean, double stddev);

  /// Log-normal parameterised by the mean/stddev of the *underlying* normal;
  /// sigma must be > 0.
  [[nodiscard]] double lognormal(double mu, double sigma);

 private:
  struct State;
  struct Bits;

  [[nodiscard]] std::uint64_t next();
  [[nodiscard]] std::uint64_t next_slow();

  std::uint64_t seed_;
  std::unique_ptr<State> state_;  ///< null until the first draw
};

}  // namespace vstream::sim
