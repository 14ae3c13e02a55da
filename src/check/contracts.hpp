// Invariant contracts for the simulator's protocol and accounting state.
//
// The macros guard properties that, when silently violated, corrupt every
// reproduced figure downstream (a negative cwnd, drifting sequence-space
// accounting, a clock that runs backwards). They throw `ContractViolation`
// with a file:line payload in checked builds and compile to nothing when
// `VSTREAM_CHECK_LEVEL` is 0, so release binaries pay zero cost while CI
// runs with the contracts armed.
//
//   VSTREAM_PRECONDITION(cond, msg)   -- caller handed us a valid request
//   VSTREAM_INVARIANT(cond, msg)      -- internal state is self-consistent
//   VSTREAM_POSTCONDITION(cond, msg)  -- we are about to hand back a valid result
//
// At level 0 the condition is placed in an unevaluated sizeof() context:
// side effects never run, but variables referenced only by contracts still
// count as used, so `-Werror=unused-*` stays quiet in both build flavours.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#ifndef VSTREAM_CHECK_LEVEL
#define VSTREAM_CHECK_LEVEL 1
#endif

namespace vstream::check {

enum class ContractKind : std::uint8_t { kPrecondition, kInvariant, kPostcondition };

[[nodiscard]] std::string_view to_string(ContractKind kind);

/// Thrown on contract violation in checked builds. `what()` carries the
/// kind, the stringified condition, the message, and the file:line payload.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(ContractKind kind, std::string_view condition, std::string_view message,
                    std::string_view file, int line);

  [[nodiscard]] ContractKind kind() const { return kind_; }
  [[nodiscard]] const std::string& condition() const { return condition_; }
  [[nodiscard]] const std::string& file() const { return file_; }
  [[nodiscard]] int line() const { return line_; }

 private:
  ContractKind kind_;
  std::string condition_;
  std::string file_;
  int line_;
};

/// Total contract evaluations that failed over the process lifetime. Only
/// moves in checked builds; lets tests prove the release flavour is inert.
[[nodiscard]] std::uint64_t violations_raised();

namespace detail {
[[noreturn]] void fail(ContractKind kind, const char* condition, const char* message,
                       const char* file, int line);
}  // namespace detail

}  // namespace vstream::check

#if VSTREAM_CHECK_LEVEL >= 1

#define VSTREAM_CONTRACT_IMPL(kind, cond, msg)                                          \
  do {                                                                                  \
    if (!(cond)) {                                                                      \
      ::vstream::check::detail::fail((kind), #cond, (msg), __FILE__, __LINE__);         \
    }                                                                                   \
  } while (false)

#else  // contracts compiled out: condition kept in an unevaluated context

#define VSTREAM_CONTRACT_IMPL(kind, cond, msg) \
  static_cast<void>(sizeof((cond) ? 1 : 0))

#endif

#define VSTREAM_PRECONDITION(cond, msg) \
  VSTREAM_CONTRACT_IMPL(::vstream::check::ContractKind::kPrecondition, cond, msg)
#define VSTREAM_INVARIANT(cond, msg) \
  VSTREAM_CONTRACT_IMPL(::vstream::check::ContractKind::kInvariant, cond, msg)
#define VSTREAM_POSTCONDITION(cond, msg) \
  VSTREAM_CONTRACT_IMPL(::vstream::check::ContractKind::kPostcondition, cond, msg)
