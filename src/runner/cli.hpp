// Command-line helpers shared by the examples and tools.
//
// Numbers parse whole: std::from_chars takes no sign for an unsigned type
// and stops at the first bad character, so "-1", "x" and "4x" are rejected
// instead of wrapped to 2^64-1 or read as 0, as strtoul and atof would.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <system_error>

namespace vstream::runner {

/// Parse all of `text` into `out` (`base...` for integers only). False
/// unless every character was consumed.
template <typename T, typename... Base>
bool parse_whole(const char* text, T& out, Base... base) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out, base...);
  return ec == std::errc{} && ptr == end;
}

/// A duration or rate: finite and positive.
inline bool parse_positive(const char* text, double& out) {
  return parse_whole(text, out) && std::isfinite(out) && out > 0.0;
}

/// A count of at least one.
inline bool parse_positive(const char* text, std::size_t& out) {
  return parse_whole(text, out) && out > 0;
}

/// Open `path` for writing when one was given, before any work runs. An
/// unwritable path is a usage error: `<tool>: cannot write <path>` goes to
/// stderr and the caller exits 2.
inline bool open_output(const char* tool, const std::string& path, std::ofstream& out) {
  if (path.empty()) return true;
  out.open(path, std::ios::trunc);
  if (out) return true;
  std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
  return false;
}

}  // namespace vstream::runner
