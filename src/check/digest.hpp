// Order-sensitive state digest for determinism auditing.
//
// A `StateDigest` folds a stream of 64-bit words, one word per step: xor
// the word in, multiply by an odd constant, then xor the high half down.
// Each of the three is a bijection of the state for a fixed word, so two
// streams that differ in exactly one word always end on different values.
// Labels (strings) go through byte-wise FNV-1a instead; they are rare. The
// simulator mixes every dispatched event (timestamp + FIFO sequence) and
// instrumented components mix state snapshots (TCP sender/receiver marks),
// so two runs of the same scenario with the same seed must produce the
// same value. Divergence pinpoints nondeterminism — unordered-container
// iteration feeding the event queue, uninitialized reads, address-dependent
// ordering — that sanitizers do not flag.
//
// The digest is intentionally order-sensitive: mixing {a, b} and {b, a}
// yields different values, which is exactly what an event-order audit needs.
#pragma once

#include <cstdint>
#include <string_view>

namespace vstream::check {

class StateDigest {
 public:
  /// FNV-1a 64-bit offset basis / prime (the reference parameters). The
  /// basis is also the start value of the word fold.
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  /// Odd multiplier of the word fold (2^64 / golden ratio, rounded odd).
  static constexpr std::uint64_t kWordMultiplier = 0x9e3779b97f4a7c15ULL;

  constexpr StateDigest() = default;

  /// Fold one 64-bit word: one multiply and one xor-shift, a few cycles of
  /// latency on the per-event and per-segment paths.
  constexpr void mix(std::uint64_t word) {
    hash_ ^= word;
    hash_ *= kWordMultiplier;
    hash_ ^= hash_ >> 32U;
    ++words_;
  }

  constexpr void mix_signed(std::int64_t word) { mix(static_cast<std::uint64_t>(word)); }

  /// Fold a label (scenario name, endpoint label) into the stream, byte by
  /// byte through FNV-1a.
  constexpr void mix(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<std::uint8_t>(c);
      hash_ *= kPrime;
    }
    ++words_;
  }

  [[nodiscard]] constexpr std::uint64_t value() const { return hash_; }
  /// Number of mix() calls folded in — a cheap cross-check that twin runs
  /// digested the same number of observations, not just the same hash.
  [[nodiscard]] constexpr std::uint64_t words_mixed() const { return words_; }

  constexpr void reset() {
    hash_ = kOffsetBasis;
    words_ = 0;
  }

 private:
  std::uint64_t hash_{kOffsetBasis};
  std::uint64_t words_{0};
};

}  // namespace vstream::check
