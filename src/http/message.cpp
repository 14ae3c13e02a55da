#include "http/message.hpp"

#include <sstream>

namespace vstream::http {
namespace {

constexpr const char* kCrlf = "\r\n";

}  // namespace

std::string reason_for_status(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 206:
      return "Partial Content";
    case 404:
      return "Not Found";
    case 416:
      return "Range Not Satisfiable";
    default:
      return "Unknown";
  }
}

std::string HttpRequest::serialize() const {
  std::ostringstream out;
  out << method << ' ' << target << " HTTP/1.1" << kCrlf;
  out << "Host: " << host << kCrlf;
  if (range.has_value()) {
    out << "Range: bytes=" << range->start << '-' << range->end << kCrlf;
  }
  for (const auto& [k, v] : headers) out << k << ": " << v << kCrlf;
  out << kCrlf;
  return out.str();
}

std::uint64_t HttpRequest::wire_size() const { return serialize().size(); }

std::string HttpResponse::serialize() const {
  std::ostringstream out;
  out << "HTTP/1.1 " << status << ' ' << reason << kCrlf;
  out << "Content-Length: " << content_length << kCrlf;
  if (content_range.has_value()) {
    out << "Content-Range: bytes " << content_range->start << '-' << content_range->end << "/*"
        << kCrlf;
  }
  for (const auto& [k, v] : headers) out << k << ": " << v << kCrlf;
  out << kCrlf;
  return out.str();
}

std::uint64_t HttpResponse::wire_size() const { return serialize().size(); }

}  // namespace vstream::http
