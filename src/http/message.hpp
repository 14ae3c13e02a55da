// Minimal HTTP/1.1 message model.
//
// Requests and response heads are serialised to real header text (so sizes
// on the wire are right), transmitted as counted bytes over the simulated
// TCP, and surfaced at the peer as tags carrying the message itself. Range
// requests are first-class: the iPad YouTube client and Netflix fetch video
// as successive ranged GETs (paper §5.1.3, §5.2).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace vstream::http {

/// Inclusive byte range, as in `Range: bytes=start-end`.
struct ByteRange {
  std::uint64_t start{0};
  std::uint64_t end{0};

  [[nodiscard]] std::uint64_t length() const { return end - start + 1; }
  friend bool operator==(const ByteRange&, const ByteRange&) = default;
};

struct HttpRequest {
  std::string method{"GET"};
  std::string target{"/"};
  std::string host{"example.com"};
  std::map<std::string, std::string> headers;
  std::optional<ByteRange> range;

  /// Render the request head as HTTP/1.1 text (ending in CRLFCRLF).
  [[nodiscard]] std::string serialize() const;
  /// Number of bytes `serialize()` would produce.
  [[nodiscard]] std::uint64_t wire_size() const;
};

struct HttpResponse {
  int status{200};
  std::string reason{"OK"};
  std::map<std::string, std::string> headers;
  std::uint64_t content_length{0};
  std::optional<ByteRange> content_range;  ///< present on 206 responses

  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] std::uint64_t wire_size() const;
};

[[nodiscard]] std::string reason_for_status(int status);

}  // namespace vstream::http
