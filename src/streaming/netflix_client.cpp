#include "streaming/netflix_client.hpp"

#include <algorithm>
#include <stdexcept>

#include "video/datasets.hpp"

namespace vstream::streaming {

namespace {

/// Steady-state blocks arrive at this multiple of the selected encoding
/// rate, on every platform (Section 5.2).
constexpr double kAccumulationRatio{1.2};
/// Fraction of the access bandwidth the rate selector may use.
constexpr double kTargetRateFraction{0.75};

}  // namespace

NetflixClient::Profile NetflixClient::Profile::pc() {
  Profile p;
  p.ladder_bps = video::netflix_rate_ladder();
  p.buffering_fragment_s = 40.0;  // ~50 MB across the six-rate ladder
  p.steady_block_bytes = 2 * 1024 * 1024;
  p.fresh_connection_per_block = true;
  return p;
}

NetflixClient::Profile NetflixClient::Profile::ipad() {
  Profile p;
  p.ladder_bps = video::netflix_ipad_ladder();
  p.buffering_fragment_s = 40.0;  // ~10 MB across the reduced ladder
  p.steady_block_bytes = 2 * 1024 * 1024;
  p.fresh_connection_per_block = true;
  return p;
}

NetflixClient::Profile NetflixClient::Profile::android() {
  Profile p;
  p.ladder_bps = video::netflix_rate_ladder();
  p.buffering_fragment_s = 33.0;  // ~40 MB
  p.steady_block_bytes = 5 * 1024 * 1024;  // long ON-OFF cycles
  p.fresh_connection_per_block = false;  // one reused connection
  return p;
}

NetflixClient::NetflixClient(sim::Simulator& sim, FetchManager& fetches,
                             const video::VideoMeta& video, Profile profile,
                             double access_bandwidth_bps, ByteSink sink)
    : sim_{sim},
      fetches_{fetches},
      video_{video},
      profile_{std::move(profile)},
      sink_{std::move(sink)},
      cycle_timer_{sim, sim::Duration::seconds(1.0), [this] { on_cycle(); }} {
  if (profile_.ladder_bps.empty()) throw std::invalid_argument{"NetflixClient: empty ladder"};

  // Adaptive selection: the highest ladder rate sustainable within the
  // allowed fraction of the access bandwidth, falling back to the lowest.
  selected_rate_bps_ = profile_.ladder_bps.front();
  for (const double r : profile_.ladder_bps) {
    if (r <= kTargetRateFraction * access_bandwidth_bps) {
      selected_rate_bps_ = std::max(selected_rate_bps_, r);
    }
  }
  if (profile_.adaptive) {
    AdaptiveRateController::Config acfg;
    acfg.ladder_bps = profile_.ladder_bps;
    acfg.safety_factor = kTargetRateFraction;
    controller_.emplace(acfg);
    controller_->seed(access_bandwidth_bps);
    selected_rate_bps_ = controller_->current_rate_bps();
  }
  update_cycle_period();
}

void NetflixClient::update_cycle_period() {
  const double steady_rate = kAccumulationRatio * selected_rate_bps_;
  const double cycle_s = static_cast<double>(profile_.steady_block_bytes) * 8.0 / steady_rate;
  cycle_timer_.set_period(sim::Duration::seconds(cycle_s));
}

std::uint64_t NetflixClient::buffering_bytes_expected() const {
  double total = 0.0;
  for (const double r : profile_.ladder_bps) total += r / 8.0 * profile_.buffering_fragment_s;
  return static_cast<std::uint64_t>(total);
}

void NetflixClient::start() {
  // Buffering phase: fragments at every ladder rate, fetched in parallel
  // over separate connections.
  fragments_pending_ = profile_.ladder_bps.size();
  for (const double rate : profile_.ladder_bps) {
    const auto bytes =
        static_cast<std::uint64_t>(rate / 8.0 * profile_.buffering_fragment_s);
    const http::ByteRange range{offset_, offset_ + bytes - 1};
    offset_ += bytes;
    fetches_.fetch_range(
        range,
        [this](std::uint64_t n) {
          fetched_ += n;
          if (sink_) sink_(n);
        },
        [this] { on_fragment_done(); });
  }
}

void NetflixClient::stop() {
  stopped_ = true;
  cycle_timer_.stop();
  fetches_.stop();
}

void NetflixClient::on_fragment_done() {
  if (stopped_) return;
  if (--fragments_pending_ == 0) {
    steady_ = true;
    // Playback effectively begins once the buffering phase completes; the
    // fragment at the selected rate is what the player drains.
    playback_start_s_ = sim_.now().to_seconds();
    content_buffered_s_ = profile_.buffering_fragment_s;
    if (controller_.has_value() && playback_start_s_ > 0.0) {
      // Seed from the observed buffering-phase throughput.
      controller_->seed(static_cast<double>(fetched_) * 8.0 / playback_start_s_);
      selected_rate_bps_ = controller_->current_rate_bps();
      update_cycle_period();
    }
    cycle_timer_.start();
  }
}

void NetflixClient::on_cycle() { fetch_block(); }

void NetflixClient::on_fetch_retry(std::uint32_t /*attempt*/) {
  if (stopped_ || !controller_.has_value()) return;
  if (controller_->on_fault()) {
    selected_rate_bps_ = controller_->current_rate_bps();
    update_cycle_period();
  }
}

void NetflixClient::fetch_block() {
  if (stopped_ || block_in_flight_) return;
  const std::uint64_t video_bytes = video_.size_bytes_at(selected_rate_bps_);
  if (offset_ >= video_bytes) {
    cycle_timer_.stop();
    return;
  }
  const std::uint64_t want = std::min(profile_.steady_block_bytes, video_bytes - offset_);
  const http::ByteRange range{offset_, offset_ + want - 1};
  offset_ += want;
  block_in_flight_ = true;
  const ByteSink sink = [this](std::uint64_t n) {
    fetched_ += n;
    if (sink_) sink_(n);
  };
  const double started_s = sim_.now().to_seconds();
  const auto done = [this, want, started_s] {
    block_in_flight_ = false;
    const double now_s = sim_.now().to_seconds();
    content_buffered_s_ += static_cast<double>(want) * 8.0 / selected_rate_bps_;
    if (!controller_.has_value()) return;
    const double buffer_s =
        content_buffered_s_ - (playback_start_s_ >= 0.0 ? now_s - playback_start_s_ : 0.0);
    if (controller_->on_block(static_cast<double>(want), now_s - started_s, buffer_s)) {
      selected_rate_bps_ = controller_->current_rate_bps();
      update_cycle_period();
    }
  };
  if (profile_.fresh_connection_per_block) {
    fetches_.fetch_range(range, sink, done);
  } else {
    fetches_.fetch_range_persistent(range, sink, done);
  }
}

}  // namespace vstream::streaming
