#include "streaming/ipad_client.hpp"

#include <algorithm>

namespace vstream::streaming {

namespace {

/// Buffering fetches one chunk of the largest per-connection amount the
/// paper saw, 8 MB (Section 5.1.3).
constexpr std::uint64_t kBufferingChunkBytes{8 * 1024 * 1024};
/// Steady-state block carries this much playback time; the byte size
/// therefore scales with the encoding rate (Fig 7b).
constexpr double kBlockPlaybackS{3.5};
/// Blocks stay within the paper's 64 kB to 8 MB per connection (Section 5.1.3).
constexpr std::uint64_t kMinBlockBytes{64 * 1024};
constexpr std::uint64_t kMaxBlockBytes{8 * 1024 * 1024};
constexpr double kAccumulationRatio{1.2};
/// Every this-many steady cycles the client re-buffers with one large
/// chunk instead of a paced block — the "periodic buffering followed by
/// short ON-OFF cycles" pattern of the paper's Video1 (Fig 7a).
constexpr std::uint32_t kRebufferEveryCycles{8};
constexpr std::uint64_t kRebufferChunkBytes{6 * 1024 * 1024};
/// Below this encoding rate the client behaves like the paper's Video2:
/// one persistent connection, plain short cycles, no re-buffering.
constexpr double kSingleConnectionBelowBps{0.5e6};

}  // namespace

IpadYouTubeClient::IpadYouTubeClient(sim::Simulator& sim, FetchManager& fetches,
                                     const video::VideoMeta& video, Config config, ByteSink sink)
    : sim_{sim},
      fetches_{fetches},
      config_{config},
      sink_{std::move(sink)},
      video_bytes_{video.size_bytes()},
      block_bytes_{std::clamp(
          static_cast<std::uint64_t>(video.encoding_bps / 8.0 * kBlockPlaybackS),
          kMinBlockBytes, kMaxBlockBytes)},
      cycle_timer_{sim, sim::Duration::seconds(1.0), [this] { on_cycle(); }} {
  const double steady_rate = kAccumulationRatio * video.encoding_bps;
  const double cycle_s = static_cast<double>(block_bytes_) * 8.0 / steady_rate;
  cycle_timer_.set_period(sim::Duration::seconds(cycle_s));
  // The paper's Video2 regime: low-rate videos stream over one persistent
  // connection with plain short cycles and no periodic re-buffering.
  single_connection_ = video.encoding_bps < kSingleConnectionBelowBps;
}

void IpadYouTubeClient::start() { fetch_next_buffering_chunk(); }

void IpadYouTubeClient::stop() {
  stopped_ = true;
  cycle_timer_.stop();
  fetches_.stop();
}

void IpadYouTubeClient::fetch_next_buffering_chunk() {
  if (stopped_ || offset_ >= video_bytes_) return;
  const std::uint64_t want = std::min<std::uint64_t>(
      {kBufferingChunkBytes, video_bytes_ - offset_,
       config_.initial_buffer_bytes > fetched_ ? config_.initial_buffer_bytes - fetched_
                                               : kBufferingChunkBytes});
  const http::ByteRange range{offset_, offset_ + want - 1};
  offset_ += want;
  fetch_in_flight_ = true;
  const ByteSink sink = [this](std::uint64_t n) {
    fetched_ += n;
    if (sink_) sink_(n);
  };
  const auto done = [this] {
    fetch_in_flight_ = false;
    if (stopped_) return;
    if (fetched_ < config_.initial_buffer_bytes && offset_ < video_bytes_) {
      fetch_next_buffering_chunk();
    } else if (!steady_) {
      steady_ = true;
      cycle_timer_.start();  // paced block fetches from here on
    }
  };
  if (single_connection_) {
    fetches_.fetch_range_persistent(range, sink, done);
  } else {
    fetches_.fetch_range(range, sink, done);
  }
}

void IpadYouTubeClient::on_cycle() {
  if (stopped_) return;
  if (offset_ >= video_bytes_) {
    cycle_timer_.stop();
    return;
  }
  if (fetch_in_flight_) return;  // previous block still transferring
  // Periodic re-buffering: one large chunk every N cycles. The large chunk
  // covers several cycles' worth of content, so the paced schedule is
  // stretched accordingly (the next fetches are skipped by offset).
  if (skip_cycles_ > 0) {
    --skip_cycles_;
    return;  // content for this cycle was prefetched by the last re-buffer
  }
  ++cycle_count_;
  const bool rebuffer = !single_connection_ && cycle_count_ % kRebufferEveryCycles == 0;
  std::uint64_t quantum = block_bytes_;
  if (rebuffer) {
    quantum = std::max(kRebufferChunkBytes, block_bytes_);
    // The big chunk banks several cycles' worth of content; skip that many
    // paced fetches so the average rate stays at ratio x encoding rate.
    skip_cycles_ = static_cast<std::uint32_t>(quantum / block_bytes_) - 1;
  }
  const std::uint64_t want = std::min(quantum, video_bytes_ - offset_);
  const http::ByteRange range{offset_, offset_ + want - 1};
  offset_ += want;
  fetch_in_flight_ = true;
  const ByteSink sink = [this](std::uint64_t n) {
    fetched_ += n;
    if (sink_) sink_(n);
  };
  const auto done = [this] { fetch_in_flight_ = false; };
  if (single_connection_) {
    fetches_.fetch_range_persistent(range, sink, done);
  } else {
    fetches_.fetch_range(range, sink, done);
  }
}

}  // namespace vstream::streaming
