#include "streaming/session_instance.hpp"

#include <stdexcept>
#include <string>

#include "http/exchange.hpp"
#include "net/path.hpp"
#include "streaming/auxiliary.hpp"
#include "streaming/fetch.hpp"
#include "streaming/ipad_client.hpp"
#include "streaming/netflix_client.hpp"
#include "streaming/video_server.hpp"
#include "tcp/connection.hpp"
#include "video/container_header.hpp"

namespace vstream::streaming {

using video::Container;

namespace {

tcp::TcpOptions client_options_with_buffer(std::uint64_t recv_bytes) {
  tcp::TcpOptions o;
  o.recv_buffer_bytes = recv_bytes;
  return o;
}

}  // namespace

SessionInstance::SessionInstance(sim::Simulator& sim, tcp::Fabric& fabric, SessionConfig config,
                                 sim::Rng& rng)
    : sim_{sim}, fabric_{fabric}, cfg_{std::move(config)} {
  started_at_s_ = sim_.now().to_seconds();
  sim::Rng knob_rng = rng.fork("session-knobs");
  if (cfg_.auxiliary_traffic) {
    auxiliary_ = std::make_unique<AuxiliaryTraffic>(sim_, fabric_, AuxiliaryTraffic::Config{},
                                                    rng.fork("auxiliary"));
    auxiliary_->start();
  }
  rate_estimate_noise_ = rng.fork("rate-estimate").lognormal(0.0, 0.15);
  wire_combination(knob_rng);
}

SessionInstance::~SessionInstance() = default;

ByteSink SessionInstance::make_sink() {
  return [this](std::uint64_t n) {
    bytes_downloaded_ += n;
    if (first_byte_s_ < 0.0) first_byte_s_ = sim_.now().to_seconds();
    last_byte_s_ = sim_.now().to_seconds();
    if (byte_tap_) byte_tap_(n);
    if (sink_player_ != nullptr) sink_player_->on_bytes_downloaded(n);
  };
}

void SessionInstance::open_single_connection(std::uint64_t client_recv_bytes,
                                             const ServerPacing& pacing) {
  tcp::TcpOptions server_tcp;
  server_tcp.reset_cwnd_after_idle = cfg_.server_idle_cwnd_reset;
  conn_ = &fabric_.create_connection(client_options_with_buffer(client_recv_bytes), server_tcp);
  server_ = std::make_unique<VideoStreamServer>(sim_, conn_->server(), cfg_.video, pacing);
  tcp::Connection* c = conn_;
  const std::string id = cfg_.video.id;
  conn_->client().set_on_established([c, id] {
    http::HttpClient http{c->client()};
    http.send_request(http::make_video_request(id));
  });
}

void SessionInstance::wire_combination(sim::Rng& knob_rng) {
  player_rate_bps_ = cfg_.video.encoding_bps;
  const auto mb = [](double x) { return static_cast<std::uint64_t>(x * 1024 * 1024); };

  if (cfg_.service == Service::kYouTube) {
    switch (cfg_.container) {
      case Container::kFlash: {
        // Server-paced push: ~40 s burst, 64 kB blocks, ratio 1.25.
        auto pacing = ServerPacing::youtube_flash();
        pacing.initial_burst_playback_s = 40.0 * knob_rng.uniform(0.85, 1.15);
        open_single_connection(512 * 1024, pacing);
        greedy_ = std::make_unique<GreedyClient>(conn_->client(), make_sink());
        conn_->open();
        break;
      }
      case Container::kFlashHd: {
        // Bulk transfer: nobody throttles HD Flash (Fig 8).
        open_single_connection(512 * 1024, ServerPacing::bulk());
        greedy_ = std::make_unique<GreedyClient>(conn_->client(), make_sink());
        conn_->open();
        break;
      }
      case Container::kHtml5: {
        if (cfg_.application == Application::kFirefox) {
          // Firefox HTML5: bulk, no throttling anywhere.
          open_single_connection(512 * 1024, ServerPacing::bulk());
          greedy_ = std::make_unique<GreedyClient>(conn_->client(), make_sink());
          conn_->open();
        } else if (cfg_.application == Application::kIosNative) {
          // iPad: successive ranged connections, mixed strategy.
          IpadYouTubeClient::Config icfg;
          icfg.initial_buffer_bytes = mb(knob_rng.uniform(8.0, 12.0));
          fetches_ = std::make_unique<FetchManager>(sim_, fabric_, cfg_.video,
                                                    client_options_with_buffer(512 * 1024),
                                                    tcp::TcpOptions{}, cfg_.fetch_retry);
          ipad_ = std::make_unique<IpadYouTubeClient>(sim_, *fetches_, cfg_.video, icfg,
                                                      make_sink());
          ipad_->start();
        } else {
          // IE / Chrome / Android app: bulk server, client pull throttling.
          PullThrottleClient::Config pcfg;
          pcfg.encoding_bps = cfg_.video.encoding_bps;
          std::uint64_t recv_buffer = 0;
          if (cfg_.application == Application::kInternetExplorer) {
            pcfg.buffering_target_bytes = mb(knob_rng.uniform(10.0, 15.0));
            pcfg.pull_quantum_bytes = 256 * 1024;
            pcfg.accumulation_ratio = 1.06;
            recv_buffer = 256 * 1024;
          } else if (cfg_.application == Application::kChrome) {
            pcfg.buffering_target_bytes = mb(knob_rng.uniform(10.0, 15.0));
            pcfg.pull_quantum_bytes = mb(knob_rng.uniform(4.0, 10.0));
            pcfg.accumulation_ratio = 1.34;
            recv_buffer = 512 * 1024;
          } else {  // Android native YouTube app
            pcfg.buffering_target_bytes = mb(knob_rng.uniform(4.0, 8.0));
            pcfg.pull_quantum_bytes = mb(knob_rng.uniform(2.8, 6.0));
            pcfg.accumulation_ratio = 1.24;
            recv_buffer = 512 * 1024;
          }
          open_single_connection(recv_buffer, ServerPacing::bulk());
          pull_ = std::make_unique<PullThrottleClient>(sim_, conn_->client(), pcfg, make_sink());
          conn_->open();
        }
        break;
      }
      case Container::kSilverlight:
        throw std::logic_error{"SessionInstance: unreachable (YouTube/Silverlight)"};
    }
  } else {
    // Netflix: Silverlight on PCs, native app on mobiles.
    NetflixClient::Profile profile = NetflixClient::Profile::pc();
    tcp::TcpOptions server_opts;
    if (cfg_.application == Application::kIosNative) {
      profile = NetflixClient::Profile::ipad();
    } else if (cfg_.application == Application::kAndroidNative) {
      profile = NetflixClient::Profile::android();
      // The long idle OFF periods of the Android app exceed the server RTO;
      // the CDN's RFC 5681 idle restart shows as an ack clock (Fig 9/§5.2.2).
      server_opts.reset_cwnd_after_idle = true;
    }
    profile.adaptive = cfg_.adaptive_bitrate;
    fetches_ = std::make_unique<FetchManager>(sim_, fabric_, cfg_.video,
                                              client_options_with_buffer(512 * 1024), server_opts,
                                              cfg_.fetch_retry);
    netflix_ = std::make_unique<NetflixClient>(sim_, *fetches_, cfg_.video, profile,
                                               cfg_.network.down_bps, make_sink());
    // Bitrate downswitch on transport faults: a timed-out request is
    // stronger evidence of congestion than any throughput sample.
    NetflixClient* nf = netflix_.get();
    fetches_->set_on_retry([nf](std::uint32_t attempt) { nf->on_fetch_retry(attempt); });
    player_rate_bps_ = netflix_->selected_rate_bps();
    netflix_->start();
  }

  // Player: consumes at the (selected) encoding rate, may interrupt.
  PlayerConfig player_cfg;
  player_cfg.encoding_bps = player_rate_bps_;
  player_cfg.duration_s = cfg_.video.duration_s;
  player_cfg.watch_fraction = cfg_.watch_fraction;
  player_ = std::make_unique<Player>(sim_, player_cfg);
  sink_player_ = player_.get();
  player_->set_on_interrupt([this] {
    stop_download();
    if (!quiesced_ && on_quiesce_) {
      quiesced_ = true;
      on_quiesce_();
    }
  });
}

void SessionInstance::stop_download() {
  if (server_) server_->stop();
  if (greedy_) greedy_->stop();
  if (pull_) pull_->stop();
  if (ipad_) ipad_->stop();
  if (netflix_) netflix_->stop();
  if (fetches_) fetches_->stop();
}

void SessionInstance::stop_auxiliary() {
  if (auxiliary_) auxiliary_->stop();
}

void SessionInstance::set_on_quiesce(std::function<void()> fn) {
  on_quiesce_ = std::move(fn);
  player_->set_on_finished([this] {
    stop_download();
    if (!quiesced_ && on_quiesce_) {
      quiesced_ = true;
      on_quiesce_();
    }
  });
}

bool SessionInstance::drained() const {
  return fabric_.idle() && (!fetches_ || fetches_->idle()) && (!auxiliary_ || auxiliary_->idle());
}

SessionOutcome SessionInstance::finalize() {
  // Fault/recovery accounting, gathered from every layer that participated:
  // the fetch retry machinery, the player's rebuffer tracking, and the
  // impaired downstream link.
  SessionOutcome outcome;
  if (fetches_) {
    outcome.resilience.fetch_retries = fetches_->retries();
    outcome.resilience.fetch_timeouts = fetches_->timeouts();
    outcome.resilience.fetch_abandoned = fetches_->abandoned();
  }
  outcome.resilience.rebuffer_count = player_->stats().rebuffer_count;
  outcome.resilience.stall_count = player_->stats().stall_count;
  outcome.resilience.stall_time_s = player_->stats().stall_time_s;
  outcome.resilience.longest_stall_s = player_->stats().longest_stall_s;
  outcome.resilience.fault_drops = fabric_.path().down().counters().dropped_fault;
  outcome.resilience.fault_windows = fabric_.path().down().counters().fault_windows;
  if (netflix_) outcome.resilience.rate_switches = netflix_->rate_switches();

  outcome.player = player_->stats();
  outcome.bytes_downloaded = bytes_downloaded_;
  outcome.connections = fabric_.video_connection_count();
  outcome.encoding_bps_true = player_rate_bps_;
  outcome.interrupted_at_s = outcome.player.interrupted ? outcome.player.interrupted_at_s : 0.0;
  outcome.started_at_s = started_at_s_;
  outcome.first_byte_s = first_byte_s_;
  outcome.last_byte_s = last_byte_s_;

  const auto header = video::make_header(cfg_.video);
  outcome.encoding_bps_estimated =
      cfg_.service == Service::kNetflix
          ? player_rate_bps_
          : video::resolve_encoding_rate(header, cfg_.video.size_bytes(), rate_estimate_noise_);
  return outcome;
}

}  // namespace vstream::streaming
