// HTTP request/response exchange over a simulated TCP connection.
//
// `HttpServer` attaches to the server endpoint of a tcp::Connection, parses
// incoming requests (delivered as tags) and hands each to a handler with a
// `Responder` the handler uses to emit the response head and then body bytes
// — possibly gradually, which is exactly how paced streaming servers work.
//
// `HttpClient` is deliberately thin: it serialises and sends requests. Body
// consumption is owned by the streaming client policies (greedy vs pull
// throttled), which read from the endpoint themselves; response heads
// surface as `HttpResponse` tags in those reads.
#pragma once

#include <functional>
#include <memory>

#include "http/message.hpp"
#include "tcp/connection.hpp"

namespace vstream::http {

/// Emits one response on the server endpoint. The handler may keep the
/// responder and deliver body bytes over time (paced streaming).
class Responder {
 public:
  Responder(tcp::Endpoint& endpoint, std::uint64_t body_length);

  /// Send the status line and headers. Must be called exactly once, first.
  void send_head(HttpResponse head);

  /// Send `bytes` of body (clamped to what remains). Returns bytes queued.
  std::uint64_t send_body(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t body_remaining() const { return remaining_; }
  [[nodiscard]] bool complete() const { return head_sent_ && remaining_ == 0; }

 private:
  tcp::Endpoint& endpoint_;
  std::uint64_t remaining_;
  bool head_sent_{false};
};

class HttpServer {
 public:
  /// Creates the responder for one request once the handler knows the body
  /// length (e.g. the video size, or the requested range's length).
  using MakeResponder = std::function<std::shared_ptr<Responder>(std::uint64_t body_length)>;

  /// `handler(request, make_responder)` is invoked per parsed request; the
  /// handler constructs its responder and may keep it to pace the body.
  using Handler = std::function<void(const HttpRequest&, const MakeResponder&)>;

  HttpServer(tcp::Endpoint& endpoint, Handler handler);

  [[nodiscard]] std::uint64_t requests_served() const { return requests_; }

 private:
  void on_readable();

  tcp::Endpoint& endpoint_;
  Handler handler_;
  std::uint64_t requests_{0};
};

class HttpClient {
 public:
  explicit HttpClient(tcp::Endpoint& endpoint) : endpoint_{endpoint} {}

  /// Serialise and transmit a request. The response head will arrive as an
  /// HttpResponse tag in the caller's endpoint reads.
  void send_request(const HttpRequest& request);

 private:
  tcp::Endpoint& endpoint_;
};

/// Convenience: make a GET for a video resource, optionally ranged.
[[nodiscard]] HttpRequest make_video_request(const std::string& video_id,
                                             std::optional<ByteRange> range = {});

}  // namespace vstream::http
