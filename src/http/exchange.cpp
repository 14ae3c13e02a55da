#include "http/exchange.hpp"

#include <stdexcept>

namespace vstream::http {

Responder::Responder(tcp::Endpoint& endpoint, std::uint64_t body_length)
    : endpoint_{endpoint}, remaining_{body_length} {}

void Responder::send_head(HttpResponse head) {
  if (head_sent_) throw std::logic_error{"Responder: head already sent"};
  head.reason = reason_for_status(head.status);
  const std::uint64_t size = head.wire_size();
  endpoint_.send(size, std::move(head));
  head_sent_ = true;
}

std::uint64_t Responder::send_body(std::uint64_t bytes) {
  if (!head_sent_) throw std::logic_error{"Responder: body before head"};
  const std::uint64_t n = std::min(bytes, remaining_);
  if (n > 0) {
    endpoint_.send(n);
    remaining_ -= n;
  }
  return n;
}

HttpServer::HttpServer(tcp::Endpoint& endpoint, Handler handler)
    : endpoint_{endpoint}, handler_{std::move(handler)} {
  if (!handler_) throw std::invalid_argument{"HttpServer: handler required"};
  endpoint_.set_on_readable([this] { on_readable(); });
}

void HttpServer::on_readable() {
  // Drain request bytes; requests arrive as tags.
  auto result = endpoint_.read(UINT64_MAX);
  const MakeResponder make = [this](std::uint64_t body_length) {
    return std::make_shared<Responder>(endpoint_, body_length);
  };
  for (auto& tag : result.tags) {
    if (tag.type() != typeid(HttpRequest)) continue;
    const auto request = std::any_cast<HttpRequest>(std::move(tag));
    ++requests_;
    handler_(request, make);
  }
}

void HttpClient::send_request(const HttpRequest& request) {
  endpoint_.send(request.wire_size(), request);
}

HttpRequest make_video_request(const std::string& video_id, std::optional<ByteRange> range) {
  HttpRequest req;
  req.method = "GET";
  req.target = "/videoplayback?id=" + video_id;
  req.host = "cdn.videostream.example";
  req.headers["User-Agent"] = "vstream/1.0";
  req.range = range;
  return req;
}

}  // namespace vstream::http
