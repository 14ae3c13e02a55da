#include "check/contracts.hpp"

#include <atomic>

namespace vstream::check {

namespace {
std::atomic<std::uint64_t> g_violations{0};
}  // namespace

std::string_view to_string(ContractKind kind) {
  switch (kind) {
    case ContractKind::kPrecondition:
      return "precondition";
    case ContractKind::kInvariant:
      return "invariant";
    case ContractKind::kPostcondition:
      return "postcondition";
  }
  return "?";
}

ContractViolation::ContractViolation(ContractKind kind, std::string_view condition,
                                     std::string_view message, std::string_view file, int line)
    : std::logic_error{std::string{to_string(kind)} + " violated at " + std::string{file} + ":" +
                       std::to_string(line) + ": (" + std::string{condition} + ") — " +
                       std::string{message}},
      kind_{kind},
      condition_{condition},
      file_{file},
      line_{line} {}

std::uint64_t violations_raised() { return g_violations.load(std::memory_order_relaxed); }

namespace detail {

void fail(ContractKind kind, const char* condition, const char* message, const char* file,
          int line) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  throw ContractViolation{kind, condition, message, file, line};
}

}  // namespace detail

}  // namespace vstream::check
