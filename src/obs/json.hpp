// The one JSON codec: every report, metrics snapshot, Chrome trace, sweep
// profile and shard payload vstream writes goes through the writers here,
// and every field read back goes through `read`.
//
// The codec owns the format rules, so no caller restates them:
//   - numbers print `%.{digits}g` or, as `Format::fixed`, `%.{digits}f`;
//     a non-finite value prints `null`. Each call site keeps its own
//     precision as a constant;
//   - strings are quoted, with `"`, `\`, `\n`, `\r` and `\t` escaped and
//     any other byte below 0x20 written as `\u00XX`;
//   - a field is found in a flat object by its `"key":` text, and parsed
//     with std::from_chars: a u64 takes no sign and no overflow, a double
//     must be finite, a digest is a hex string, and the value must end
//     where the JSON token does.
//
// The reader serves the flat objects the writers produce (a shard
// payload, which holds only u64s, doubles and digests); it is not a
// general JSON parser.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vstream::obs::json {

/// How a double prints: `digits` significant digits, or `digits` decimals
/// when `fixed`.
struct Format {
  int digits{6};
  bool fixed{false};
};

/// An object written field by field, in call order. A key is escaped like
/// any string.
class Object {
 public:
  Object& string(std::string_view key, std::string_view value);
  Object& integer(std::string_view key, std::uint64_t value);
  /// `null` when absent or not finite.
  Object& number(std::string_view key, std::optional<double> value, Format format);
  /// `null` when absent.
  Object& boolean(std::string_view key, std::optional<bool> value);
  /// A 64-bit digest as a 16-digit hex string: a JSON number would lose
  /// bits above 2^53 in any double-based reader.
  Object& digest(std::string_view key, std::uint64_t value);
  /// A value already rendered as JSON (a nested object or array).
  Object& raw(std::string_view key, std::string_view json);

  /// The closed object. The builder is spent afterwards.
  [[nodiscard]] std::string close();

 private:
  std::string& key(std::string_view key);

  std::string out_{"{"};
};

/// An array written element by element, in call order.
class Array {
 public:
  Array& integer(std::uint64_t value);
  /// `null` when not finite.
  Array& number(double value, Format format);
  /// An element already rendered as JSON.
  Array& raw(std::string_view json);

  /// The closed array. The builder is spent afterwards.
  [[nodiscard]] std::string close();

 private:
  std::string& next();

  std::string out_{"["};
};

/// What reading one field found. `null` reads as kMissing: it is how the
/// writer spells a value it does not have.
enum class Field { kOk, kMissing, kInvalid };

/// Read the field `key` of the flat object `text` into `out`, which is
/// written only on kOk.
[[nodiscard]] Field read(std::string_view text, std::string_view key, std::uint64_t& out);
[[nodiscard]] Field read(std::string_view text, std::string_view key, double& out);

/// Read a digest written by `Object::digest`.
[[nodiscard]] Field read_digest(std::string_view text, std::string_view key, std::uint64_t& out);

}  // namespace vstream::obs::json
