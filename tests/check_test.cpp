// Tests for the contract layer (vstream_check): violation payloads, the
// process-wide violation counter, and the state digest. (The
// simulator's own use of the contracts is covered in sim_test.cpp.)
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "check/contracts.hpp"
#include "check/digest.hpp"

namespace vstream::check {
namespace {

static_assert(VSTREAM_CHECK_LEVEL >= 1,
              "check_test must build with contracts armed; the level-0 "
              "flavour is covered by check_release_test");

TEST(ContractsTest, PassingContractsAreSilent) {
  const std::uint64_t before = violations_raised();
  VSTREAM_PRECONDITION(1 + 1 == 2, "arithmetic works");
  VSTREAM_INVARIANT(true, "still true");
  VSTREAM_POSTCONDITION(2 > 1, "ordering works");
  EXPECT_EQ(violations_raised(), before);
}

TEST(ContractsTest, ViolatedPreconditionThrowsWithKind) {
  try {
    VSTREAM_PRECONDITION(false, "caller broke the deal");
    FAIL() << "precondition did not throw";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), ContractKind::kPrecondition);
    EXPECT_EQ(v.condition(), "false");
  }
}

TEST(ContractsTest, ViolatedInvariantThrowsWithKind) {
  EXPECT_THROW(VSTREAM_INVARIANT(false, "state corrupt"), ContractViolation);
  try {
    VSTREAM_INVARIANT(false, "state corrupt");
    FAIL() << "invariant did not throw";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), ContractKind::kInvariant);
  }
}

TEST(ContractsTest, ViolatedPostconditionThrowsWithKind) {
  try {
    VSTREAM_POSTCONDITION(false, "result out of range");
    FAIL() << "postcondition did not throw";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), ContractKind::kPostcondition);
  }
}

TEST(ContractsTest, WhatCarriesFileLineConditionAndMessage) {
  try {
    const int cwnd = -1;
    VSTREAM_INVARIANT(cwnd >= 0, "cwnd must never go negative");
    FAIL() << "invariant did not throw";
  } catch (const ContractViolation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("invariant"), std::string::npos) << what;
    EXPECT_NE(what.find("cwnd >= 0"), std::string::npos) << what;
    EXPECT_NE(what.find("cwnd must never go negative"), std::string::npos) << what;
    EXPECT_NE(what.find("check_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(v.line())), std::string::npos) << what;
    EXPECT_NE(v.file().find("check_test.cpp"), std::string::npos);
    EXPECT_GT(v.line(), 0);
  }
}

TEST(ContractsTest, ViolationCounterAdvancesPerFailure) {
  const std::uint64_t before = violations_raised();
  EXPECT_THROW(VSTREAM_INVARIANT(false, "one"), ContractViolation);
  EXPECT_THROW(VSTREAM_PRECONDITION(false, "two"), ContractViolation);
  EXPECT_EQ(violations_raised(), before + 2);
}

TEST(ContractsTest, KindNamesAreStable) {
  EXPECT_EQ(to_string(ContractKind::kPrecondition), "precondition");
  EXPECT_EQ(to_string(ContractKind::kInvariant), "invariant");
  EXPECT_EQ(to_string(ContractKind::kPostcondition), "postcondition");
}

TEST(ContractsTest, ConditionIsEvaluatedExactlyOnce) {
  int calls = 0;
  const auto pass_and_count = [&calls] {
    ++calls;
    return true;
  };
  VSTREAM_INVARIANT(pass_and_count(), "side effect must run once when armed");
  EXPECT_EQ(calls, 1);
}

// ----------------------------------------------------------------- digest

TEST(StateDigestTest, EmptyDigestIsOffsetBasis) {
  const StateDigest d;
  EXPECT_EQ(d.value(), StateDigest::kOffsetBasis);
  EXPECT_EQ(d.words_mixed(), 0U);
}

TEST(StateDigestTest, MatchesReferenceFnv1aVectors) {
  // Reference FNV-1a 64-bit test vectors (Fowler/Noll/Vo).
  StateDigest a;
  a.mix(std::string_view{"a"});
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cULL);

  StateDigest foobar;
  foobar.mix(std::string_view{"foobar"});
  EXPECT_EQ(foobar.value(), 0x85944171f73967e8ULL);
}

TEST(StateDigestTest, WordMixMatchesRestatedFold) {
  // The word fold restated: xor the word in, multiply by the odd constant,
  // xor the high half down. Checked after every word of a fixed sequence.
  constexpr std::uint64_t kWords[] = {0,
                                      1,
                                      0x0102030405060708ULL,
                                      ~std::uint64_t{0},
                                      0x8000000000000000ULL,
                                      0xdeadbeefcafef00dULL,
                                      42};
  std::uint64_t expected = StateDigest::kOffsetBasis;
  StateDigest d;
  for (const std::uint64_t w : kWords) {
    expected ^= w;
    expected *= 0x9e3779b97f4a7c15ULL;
    expected ^= expected >> 32U;
    d.mix(w);
    EXPECT_EQ(d.value(), expected) << "after word " << d.words_mixed();
  }
  EXPECT_EQ(d.words_mixed(), std::size(kWords));
}

TEST(StateDigestTest, FlippingAnyBitOfOneWordChangesTheValue) {
  // Each step of the fold is a bijection for a fixed word, so streams that
  // differ in exactly one word must end apart, however many words follow.
  const auto fold = [](std::uint64_t third) {
    StateDigest d;
    d.mix(std::uint64_t{7});
    d.mix_signed(-3);
    d.mix(third);
    for (std::uint64_t w = 0; w < 16; ++w) d.mix(w * 0x0101010101010101ULL);
    return d.value();
  };
  constexpr std::uint64_t kBases[] = {0, 0x0123456789abcdefULL, ~std::uint64_t{0}};
  for (const std::uint64_t base : kBases) {
    const std::uint64_t reference = fold(base);
    for (unsigned bit = 0; bit < 64; ++bit) {
      EXPECT_NE(fold(base ^ (std::uint64_t{1} << bit)), reference)
          << "bit " << bit << " of " << std::hex << base;
    }
  }
}

TEST(StateDigestTest, OrderSensitive) {
  StateDigest ab;
  ab.mix(std::uint64_t{1});
  ab.mix(std::uint64_t{2});
  StateDigest ba;
  ba.mix(std::uint64_t{2});
  ba.mix(std::uint64_t{1});
  EXPECT_NE(ab.value(), ba.value());
  EXPECT_EQ(ab.words_mixed(), ba.words_mixed());
}

TEST(StateDigestTest, ResetRestoresInitialState) {
  StateDigest d;
  d.mix(std::uint64_t{42});
  d.mix_signed(-7);
  EXPECT_NE(d.value(), StateDigest::kOffsetBasis);
  d.reset();
  EXPECT_EQ(d.value(), StateDigest::kOffsetBasis);
  EXPECT_EQ(d.words_mixed(), 0U);
}

TEST(StateDigestTest, SignedMixIsTwosComplement) {
  StateDigest neg;
  neg.mix_signed(-1);
  StateDigest all_ones;
  all_ones.mix(~std::uint64_t{0});
  EXPECT_EQ(neg.value(), all_ones.value());
}

}  // namespace
}  // namespace vstream::check
