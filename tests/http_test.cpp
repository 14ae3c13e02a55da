// Tests for HTTP message framing and request/response exchange over the
// simulated TCP.
#include <gtest/gtest.h>

#include "http/exchange.hpp"
#include "http/message.hpp"
#include "net/path.hpp"
#include "net/profile.hpp"
#include "tcp/connection.hpp"

namespace vstream::http {
namespace {

using sim::SimTime;

TEST(HttpMessageTest, RequestSerializesRangeAndHeaders) {
  HttpRequest req;
  req.method = "GET";
  req.target = "/videoplayback?id=abc";
  req.host = "cdn.example.com";
  req.headers["User-Agent"] = "vstream/1.0";
  req.range = ByteRange{100, 999};

  const std::string text = req.serialize();
  EXPECT_NE(text.find("GET /videoplayback?id=abc HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(text.find("Range: bytes=100-999\r\n"), std::string::npos);
  EXPECT_NE(text.find("Host: cdn.example.com\r\n"), std::string::npos);
  EXPECT_NE(text.find("User-Agent: vstream/1.0\r\n"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 4), "\r\n\r\n");
}

TEST(HttpMessageTest, WireSizeMatchesSerialization) {
  HttpRequest req;
  req.headers["X-Test"] = "yes";
  EXPECT_EQ(req.wire_size(), req.serialize().size());
  HttpResponse res;
  res.content_length = 12345;
  EXPECT_EQ(res.wire_size(), res.serialize().size());
}

TEST(HttpMessageTest, ResponseSerializesContentRangeAndHeaders) {
  HttpResponse res;
  res.status = 206;
  res.reason = reason_for_status(206);
  res.content_length = 65536;
  res.content_range = ByteRange{0, 65535};
  res.headers["Content-Type"] = "video/webm";

  const std::string text = res.serialize();
  EXPECT_NE(text.find("HTTP/1.1 206 Partial Content\r\n"), std::string::npos);
  EXPECT_NE(text.find("Content-Length: 65536\r\n"), std::string::npos);
  EXPECT_NE(text.find("Content-Range: bytes 0-65535/*\r\n"), std::string::npos);
  EXPECT_NE(text.find("Content-Type: video/webm\r\n"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 4), "\r\n\r\n");
}

TEST(HttpMessageTest, ByteRangeLength) {
  EXPECT_EQ((ByteRange{0, 0}).length(), 1U);
  EXPECT_EQ((ByteRange{100, 199}).length(), 100U);
}

TEST(HttpMessageTest, ReasonStrings) {
  EXPECT_EQ(reason_for_status(200), "OK");
  EXPECT_EQ(reason_for_status(206), "Partial Content");
  EXPECT_EQ(reason_for_status(416), "Range Not Satisfiable");
}

TEST(HttpMessageTest, MakeVideoRequestCarriesRange) {
  const auto req = make_video_request("abc", ByteRange{0, 1023});
  EXPECT_EQ(req.method, "GET");
  EXPECT_NE(req.target.find("abc"), std::string::npos);
  ASSERT_TRUE(req.range.has_value());
  EXPECT_EQ(req.range->length(), 1024U);
}

struct ExchangeHarness {
  ExchangeHarness() : rng{5}, path{sim, profile(), rng}, fabric{sim, path} {}

  static net::NetworkProfile profile() {
    auto p = net::profile_for(net::Vantage::kResearch);
    p.loss_rate = 0.0;
    return p;
  }

  sim::Simulator sim;
  sim::Rng rng;
  net::Path path;
  tcp::Fabric fabric;
};

TEST(HttpExchangeTest, RequestReachesServerHandler) {
  ExchangeHarness h;
  auto& conn = h.fabric.create_connection({}, {});
  std::vector<HttpRequest> seen;
  HttpServer server{conn.server(), [&](const HttpRequest& req, const HttpServer::MakeResponder&) {
                      seen.push_back(req);
                    }};
  conn.client().set_on_established([&] {
    HttpClient client{conn.client()};
    client.send_request(make_video_request("vid42"));
  });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(2.0));
  ASSERT_EQ(seen.size(), 1U);
  EXPECT_NE(seen[0].target.find("vid42"), std::string::npos);
  EXPECT_EQ(server.requests_served(), 1U);
}

TEST(HttpExchangeTest, ResponseHeadAndBodyDelivered) {
  ExchangeHarness h;
  auto& conn = h.fabric.create_connection({}, {});
  constexpr std::uint64_t kBody = 100'000;
  HttpServer server{conn.server(),
                    [&](const HttpRequest&, const HttpServer::MakeResponder& make) {
                      auto responder = make(kBody);
                      HttpResponse head;
                      head.status = 200;
                      head.content_length = kBody;
                      responder->send_head(head);
                      responder->send_body(kBody);
                      EXPECT_TRUE(responder->complete());
                    }};
  std::uint64_t body_bytes = 0;
  std::optional<HttpResponse> head;
  std::uint64_t head_size = 0;
  conn.client().set_on_readable([&] {
    auto r = conn.client().read(UINT64_MAX);
    for (auto& t : r.tags) {
      if (t.type() == typeid(HttpResponse)) {
        head = std::any_cast<HttpResponse>(t);
        head_size = head->wire_size();
      }
    }
    body_bytes = conn.client().total_read() > head_size ? conn.client().total_read() - head_size
                                                        : 0;
  });
  conn.client().set_on_established([&] {
    HttpClient client{conn.client()};
    client.send_request(make_video_request("x"));
  });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(10.0));
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->status, 200);
  EXPECT_EQ(head->content_length, kBody);
  EXPECT_EQ(body_bytes, kBody);
}

TEST(HttpExchangeTest, RangedRequestGets206WithClampedRange) {
  ExchangeHarness h;
  auto& conn = h.fabric.create_connection({}, {});
  HttpServer server{conn.server(),
                    [&](const HttpRequest& req, const HttpServer::MakeResponder& make) {
                      ASSERT_TRUE(req.range.has_value());
                      auto responder = make(req.range->length());
                      HttpResponse head;
                      head.status = 206;
                      head.content_length = req.range->length();
                      head.content_range = req.range;
                      responder->send_head(head);
                      responder->send_body(req.range->length());
                    }};
  std::optional<HttpResponse> head;
  conn.client().set_on_readable([&] {
    auto r = conn.client().read(UINT64_MAX);
    for (auto& t : r.tags) {
      if (t.type() == typeid(HttpResponse)) head = std::any_cast<HttpResponse>(t);
    }
  });
  conn.client().set_on_established([&] {
    HttpClient client{conn.client()};
    client.send_request(make_video_request("x", ByteRange{1000, 1999}));
  });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(5.0));
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->status, 206);
  EXPECT_EQ(head->content_length, 1000U);
}

TEST(HttpExchangeTest, PacedBodyArrivesGradually) {
  ExchangeHarness h;
  auto& conn = h.fabric.create_connection({}, {});
  std::shared_ptr<Responder> kept;
  HttpServer server{conn.server(),
                    [&](const HttpRequest&, const HttpServer::MakeResponder& make) {
                      kept = make(1'000'000);
                      HttpResponse head;
                      head.content_length = 1'000'000;
                      kept->send_head(head);
                      kept->send_body(100'000);  // first instalment only
                    }};
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.client().set_on_established([&] {
    HttpClient client{conn.client()};
    client.send_request(make_video_request("x"));
  });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(2.0));
  const std::uint64_t after_first = conn.client().total_read();
  EXPECT_LT(after_first, 200'000U);
  kept->send_body(900'000);  // the rest
  h.sim.run_until(SimTime::from_seconds(10.0));
  EXPECT_GT(conn.client().total_read(), 1'000'000U);
  EXPECT_TRUE(kept->complete());
}

TEST(HttpExchangeTest, MultipleSequentialRequestsOnOneConnection) {
  ExchangeHarness h;
  auto& conn = h.fabric.create_connection({}, {});
  int served = 0;
  HttpServer server{conn.server(),
                    [&](const HttpRequest&, const HttpServer::MakeResponder& make) {
                      ++served;
                      auto responder = make(1000);
                      HttpResponse head;
                      head.content_length = 1000;
                      responder->send_head(head);
                      responder->send_body(1000);
                    }};
  conn.client().set_on_readable([&] { (void)conn.client().read(UINT64_MAX); });
  conn.client().set_on_established([&] {
    HttpClient client{conn.client()};
    client.send_request(make_video_request("a"));
    client.send_request(make_video_request("b"));
  });
  conn.open();
  h.sim.run_until(SimTime::from_seconds(5.0));
  EXPECT_EQ(served, 2);
}

TEST(HttpExchangeTest, ResponderGuardsMisuse) {
  ExchangeHarness h;
  auto& conn = h.fabric.create_connection({}, {});
  Responder responder{conn.server(), 100};
  EXPECT_THROW(responder.send_body(10), std::logic_error);  // body before head
  HttpResponse head;
  head.content_length = 100;
  // Sending a head on an unestablished endpoint queues bytes; allowed.
  responder.send_head(head);
  EXPECT_THROW(responder.send_head(head), std::logic_error);  // double head
  EXPECT_EQ(responder.send_body(1000), 100U);                 // clamped to remaining
  EXPECT_EQ(responder.send_body(10), 0U);
}

TEST(HttpExchangeTest, ServerRequiresHandler) {
  ExchangeHarness h;
  auto& conn = h.fabric.create_connection({}, {});
  EXPECT_THROW((HttpServer{conn.server(), nullptr}), std::invalid_argument);
}

}  // namespace
}  // namespace vstream::http
