#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

namespace vstream::obs::json {
namespace {

/// Append `value` in `format`, or `null` when it is absent or not finite.
void append_number(std::string& out, std::optional<double> value, Format format) {
  if (!value.has_value() || !std::isfinite(*value)) {
    out += "null";
    return;
  }
  const char* spec = format.fixed ? "%.*f" : "%.*g";
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, spec, format.digits, *value);
  if (n < 0) throw std::runtime_error{"json: cannot format a number"};
  if (static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  // A fixed-decimal form of a large value: up to ~310 integer digits.
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);
  std::snprintf(out.data() + at, static_cast<std::size_t>(n) + 1, spec, format.digits, *value);
  out.resize(at + static_cast<std::size_t>(n));
}

/// Append `s` quoted and escaped.
void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_integer(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  out.append(buf, end);
}

}  // namespace

// ---------------------------------------------------------------- Object

std::string& Object::key(std::string_view key) {
  if (out_.size() > 1) out_ += ',';
  append_string(out_, key);
  out_ += ':';
  return out_;
}

Object& Object::string(std::string_view key, std::string_view value) {
  append_string(this->key(key), value);
  return *this;
}

Object& Object::integer(std::string_view key, std::uint64_t value) {
  append_integer(this->key(key), value);
  return *this;
}

Object& Object::number(std::string_view key, std::optional<double> value, Format format) {
  append_number(this->key(key), value, format);
  return *this;
}

Object& Object::boolean(std::string_view key, std::optional<bool> value) {
  this->key(key) += !value.has_value() ? "null" : *value ? "true" : "false";
  return *this;
}

Object& Object::digest(std::string_view key, std::uint64_t value) {
  char hex[24];
  std::snprintf(hex, sizeof hex, "\"%016llx\"", static_cast<unsigned long long>(value));
  this->key(key) += hex;
  return *this;
}

Object& Object::raw(std::string_view key, std::string_view json) {
  this->key(key) += json;
  return *this;
}

std::string Object::close() {
  out_ += '}';
  return std::move(out_);
}

// ----------------------------------------------------------------- Array

std::string& Array::next() {
  if (out_.size() > 1) out_ += ',';
  return out_;
}

Array& Array::integer(std::uint64_t value) {
  append_integer(next(), value);
  return *this;
}

Array& Array::number(double value, Format format) {
  append_number(next(), value, format);
  return *this;
}

Array& Array::raw(std::string_view json) {
  next() += json;
  return *this;
}

std::string Array::close() {
  out_ += ']';
  return std::move(out_);
}

// ---------------------------------------------------------------- reader

namespace {

/// True when a value token ending at `p` is followed by the end of the text
/// or by what may follow a value: a separator, a closing bracket or space.
bool ends_token(std::string_view value, const char* p) {
  const std::size_t at = static_cast<std::size_t>(p - value.data());
  return at == value.size() || std::string_view{",}] \t\r\n"}.find(value[at]) !=
                                   std::string_view::npos;
}

/// The text right after `"key":`, or nullopt when the key is absent or its
/// value is `null`.
std::optional<std::string_view> value_of(std::string_view text, std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle += '"';
  needle += key;
  needle += "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const std::string_view value = text.substr(at + needle.size());
  if (value.substr(0, 4) == "null" && ends_token(value, value.data() + 4)) return std::nullopt;
  return value;
}

template <typename T>
Field read_number(std::string_view text, std::string_view key, T& out) {
  const auto value = value_of(text, key);
  if (!value.has_value()) return Field::kMissing;
  T parsed{};
  const auto [p, ec] = std::from_chars(value->data(), value->data() + value->size(), parsed);
  if (ec != std::errc{} || !ends_token(*value, p)) return Field::kInvalid;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed)) return Field::kInvalid;
  }
  out = parsed;
  return Field::kOk;
}

}  // namespace

Field read(std::string_view text, std::string_view key, std::uint64_t& out) {
  return read_number(text, key, out);
}

Field read(std::string_view text, std::string_view key, double& out) {
  return read_number(text, key, out);
}

Field read_digest(std::string_view text, std::string_view key, std::uint64_t& out) {
  const auto value = value_of(text, key);
  if (!value.has_value()) return Field::kMissing;
  if (value->empty() || value->front() != '"') return Field::kInvalid;
  std::uint64_t parsed = 0;
  const char* end = value->data() + value->size();
  const auto [p, ec] = std::from_chars(value->data() + 1, end, parsed, 16);
  if (ec != std::errc{} || p == end || *p != '"' || !ends_token(*value, p + 1)) {
    return Field::kInvalid;
  }
  out = parsed;
  return Field::kOk;
}

}  // namespace vstream::obs::json
