#include "streaming/auxiliary.hpp"

#include <utility>

namespace vstream::streaming {

namespace {

constexpr std::uint8_t kHost{1};  ///< server tag for the aux connections
constexpr double kAssetBytesMin{20 * 1024};
constexpr double kAssetBytesMax{300 * 1024};

}  // namespace

AuxiliaryTraffic::AuxiliaryTraffic(sim::Simulator& sim, tcp::Fabric& fabric, Config config,
                                   sim::Rng rng)
    : sim_{sim}, fabric_{fabric}, config_{config}, rng_{std::move(rng)} {}

void AuxiliaryTraffic::start() {
  const auto assets = static_cast<std::uint32_t>(rng_.uniform_int(
      config_.asset_count_min, config_.asset_count_max));
  for (std::uint32_t i = 0; i < assets; ++i) {
    const auto bytes =
        static_cast<std::uint64_t>(rng_.uniform(kAssetBytesMin, kAssetBytesMax));
    open_asset(bytes, rng_.uniform(0.0, kStartSpreadS));
  }
  if (config_.beacon_period_s > 0.0) open_beacon_channel();
}

void AuxiliaryTraffic::stop() {
  stopped_ = true;
  if (beacon_timer_) beacon_timer_->stop();
}

void AuxiliaryTraffic::open_asset(std::uint64_t bytes, double delay_s) {
  ++pending_opens_;
  sim_.schedule_after(sim::Duration::seconds(delay_s), [this, bytes] {
    --pending_opens_;
    if (stopped_) return;
    auto& conn = fabric_.create_connection({}, {}, kHost);
    ++connections_;
    // Static asset server: serve `bytes` per request, whatever the target.
    servers_.push_back(std::make_unique<http::HttpServer>(
        conn.server(),
        [bytes](const http::HttpRequest&, const http::HttpServer::MakeResponder& make) {
          auto responder = make(bytes);
          http::HttpResponse head;
          head.content_length = bytes;
          head.headers["Content-Type"] = "image/jpeg";
          responder->send_head(head);
          responder->send_body(bytes);
        }));
    tcp::Connection* c = &conn;
    conn.client().set_on_readable([this, c] {
      const auto r = c->client().read(UINT64_MAX);
      bytes_ += r.bytes;
    });
    conn.client().set_on_established([c] {
      http::HttpClient http{c->client()};
      http::HttpRequest req;
      req.target = "/assets/related";
      req.host = "static.videostream.example";
      http.send_request(req);
    });
    conn.open();
  });
}

void AuxiliaryTraffic::open_beacon_channel() {
  auto& conn = fabric_.create_connection({}, {}, kHost);
  ++connections_;
  beacon_conn_ = &conn;
  const std::uint64_t reply = config_.beacon_bytes;
  servers_.push_back(std::make_unique<http::HttpServer>(
      conn.server(),
      [reply](const http::HttpRequest&, const http::HttpServer::MakeResponder& make) {
        auto responder = make(reply);
        http::HttpResponse head;
        head.content_length = reply;
        head.headers["Content-Type"] = "application/json";
        responder->send_head(head);
        responder->send_body(reply);
      }));
  conn.client().set_on_readable([this] {
    const auto r = beacon_conn_->client().read(UINT64_MAX);
    bytes_ += r.bytes;
  });
  beacon_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, sim::Duration::seconds(config_.beacon_period_s), [this] {
        if (stopped_ || beacon_conn_->client().state() != tcp::TcpState::kEstablished) return;
        http::HttpClient http{beacon_conn_->client()};
        http::HttpRequest req;
        req.method = "POST";
        req.target = "/stats/watchtime";
        req.host = "beacon.videostream.example";
        http.send_request(req);
      });
  conn.client().set_on_established([this] { beacon_timer_->start(); });
  conn.open();
}

}  // namespace vstream::streaming
