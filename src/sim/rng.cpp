#include "sim/rng.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <stdexcept>

namespace vstream::sim {
namespace {

// MT19937-64 parameters (Matsumoto & Nishimura; C++ [rand.predef]).
constexpr std::size_t kN = 312;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

// FNV-1a over the tag, used to decorrelate forked streams.
std::uint64_t hash_tag(std::string_view tag) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : tag) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

/// The twist of one word from its own and its successor's old value and
/// the word kM ahead (mod kN).
constexpr std::uint64_t twist(std::uint64_t word, std::uint64_t succ, std::uint64_t ahead) {
  const std::uint64_t y = (word & kUpperMask) | (succ & kLowerMask);
  return ahead ^ (y >> 1) ^ (-(y & 1U) & kMatrixA);
}

constexpr std::uint64_t temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
  z ^= (z << 37) & 0xFFF7EEE000000000ULL;
  z ^= z >> 43;
  return z;
}

}  // namespace

/// The engine state. Words [0, ready) of the current block are twisted and
/// may be output; in the first block, words [0, seeded) hold the seeding
/// recurrence and the rest are not written yet.
struct Rng::State {
  std::array<std::uint64_t, kN> mt;
  std::size_t next{0};
  std::size_t ready{0};
  std::size_t seeded{0};
};

/// The stream seen as a uniform random bit generator, for the std
/// distributions. Its range is the engine's, so each distribution consumes
/// exactly the words it would from the standard library's engine.
struct Rng::Bits {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return rng.next(); }
  Rng& rng;
};

Rng::Rng(std::uint64_t seed) : seed_{seed} {}
Rng::~Rng() = default;
Rng::Rng(Rng&&) noexcept = default;
Rng& Rng::operator=(Rng&&) noexcept = default;

inline std::uint64_t Rng::next() {
  State* s = state_.get();
  if (s != nullptr && s->next < s->ready) [[likely]] return temper(s->mt[s->next++]);
  return next_slow();
}

std::uint64_t Rng::next_slow() {
  if (state_ == nullptr) {
    state_ = std::make_unique<State>();  // zeroed, so no read can see an indeterminate word
    state_->mt[0] = seed_;
    state_->seeded = 1;
  }
  State& s = *state_;
  auto& mt = s.mt;
  if (s.next == kN) {
    // Every later block: the standard whole-block twist.
    for (std::size_t i = 0; i < kN - kM; ++i) mt[i] = twist(mt[i], mt[i + 1], mt[i + kM]);
    for (std::size_t i = kN - kM; i < kN - 1; ++i) {
      mt[i] = twist(mt[i], mt[i + 1], mt[i + kM - kN]);
    }
    mt[kN - 1] = twist(mt[kN - 1], mt[0], mt[kM - 1]);
    s.next = 0;
    s.ready = kN;
  } else {
    // The first block, one word per draw, in the block twist's order.
    // Below kN - kM, word i reads the seeded words i, i + 1 and i + kM, so
    // the seeding first runs through i + kM; from kN - kM on, every word it
    // reads is seeded or already twisted.
    const std::size_t i = s.next;
    const std::size_t need = std::min(i + kM + 1, kN);
    std::uint64_t word = mt[s.seeded - 1];
    for (std::size_t k = s.seeded; k < need; ++k) {
      word = kInitMultiplier * (word ^ (word >> 62)) + k;
      mt[k] = word;
    }
    s.seeded = need;
    mt[i] = twist(mt[i], mt[(i + 1) % kN], mt[(i + kM) % kN]);
    s.ready = i + 1;
  }
  return temper(mt[s.next++]);
}

Rng Rng::fork(std::string_view tag) {
  const std::uint64_t child_seed = next() ^ hash_tag(tag);
  return Rng{child_seed};
}

double Rng::uniform(double lo, double hi) {
  if (!std::isfinite(hi - lo)) {
    throw std::invalid_argument{"Rng::uniform: bounds and their span must be finite"};
  }
  if (lo > hi) throw std::invalid_argument{"Rng::uniform: lo > hi"};
  Bits bits{*this};
  std::uniform_real_distribution<double> d{lo, hi};
  return d(bits);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument{"Rng::uniform_int: lo > hi"};
  Bits bits{*this};
  std::uniform_int_distribution<std::int64_t> d{lo, hi};
  return d(bits);
}

bool Rng::bernoulli(double p) {
  if (std::isnan(p)) throw std::invalid_argument{"Rng::bernoulli: p is NaN"};
  Bits bits{*this};
  std::bernoulli_distribution d{std::clamp(p, 0.0, 1.0)};
  return d(bits);
}

double Rng::exponential(double rate) {
  if (!(rate > 0.0)) throw std::invalid_argument{"Rng::exponential: rate must be > 0"};
  Bits bits{*this};
  std::exponential_distribution<double> d{rate};
  return d(bits);
}

double Rng::normal(double mean, double stddev) {
  if (!(stddev > 0.0)) throw std::invalid_argument{"Rng::normal: stddev must be > 0"};
  Bits bits{*this};
  std::normal_distribution<double> d{mean, stddev};
  return d(bits);
}

double Rng::lognormal(double mu, double sigma) {
  if (!(sigma > 0.0)) throw std::invalid_argument{"Rng::lognormal: sigma must be > 0"};
  Bits bits{*this};
  std::lognormal_distribution<double> d{mu, sigma};
  return d(bits);
}

}  // namespace vstream::sim
