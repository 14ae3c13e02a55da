// Native iPad YouTube client (Section 5.1.3, Fig 7).
//
// The paper saw this client fetch one video over dozens of successive TCP
// connections carrying ranged GETs (37 in the first 60 s for Video1), with
// per-connection amounts from 64 kB to 8 MB: large chunks during periodic
// buffering, then paced block fetches whose size grows with the encoding
// rate — a *combination* of strategies ("Multiple" in Table 1).
#pragma once

#include <cstdint>

#include "streaming/fetch.hpp"

namespace vstream::streaming {

class IpadYouTubeClient {
 public:
  struct Config {
    std::uint64_t initial_buffer_bytes{10 * 1024 * 1024};
  };

  IpadYouTubeClient(sim::Simulator& sim, FetchManager& fetches, const video::VideoMeta& video,
                    Config config, ByteSink sink);

  void start();
  void stop();

  [[nodiscard]] std::uint64_t block_bytes() const { return block_bytes_; }
  [[nodiscard]] std::uint64_t bytes_fetched() const { return fetched_; }
  [[nodiscard]] bool in_steady_state() const { return steady_; }
  /// True in the paper's Video2 regime (one persistent connection).
  [[nodiscard]] bool single_connection_mode() const { return single_connection_; }

 private:
  void fetch_next_buffering_chunk();
  void on_cycle();

  sim::Simulator& sim_;
  FetchManager& fetches_;
  Config config_;
  ByteSink sink_;
  std::uint64_t video_bytes_;
  std::uint64_t block_bytes_;
  sim::PeriodicTimer cycle_timer_;
  std::uint64_t offset_{0};
  std::uint64_t fetched_{0};
  std::uint32_t cycle_count_{0};
  std::uint32_t skip_cycles_{0};
  bool single_connection_{false};
  bool steady_{false};
  bool stopped_{false};
  bool fetch_in_flight_{false};
};

}  // namespace vstream::streaming
