// Netflix Silverlight / native-app client model (Section 5.2).
//
// At session start the client downloads video fragments at *every* rate of
// the encoding ladder (Akhshabi et al., cited by the paper) — which is why
// PC buffering amounts reach ~50 MB while the iPad, with a reduced ladder,
// downloads ~10 MB and the Android app ~40 MB. In steady state the client
// fetches blocks of the selected rate over many TCP connections (fresh
// connection per block on PCs/iPad -> short ON-OFF with an ack clock per
// connection; a reused connection with large blocks on Android -> long
// ON-OFF cycles).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "streaming/adaptive.hpp"
#include "streaming/fetch.hpp"

namespace vstream::streaming {

class NetflixClient {
 public:
  struct Profile {
    std::vector<double> ladder_bps;
    double buffering_fragment_s{40.0};   ///< seconds of content per ladder rate
    std::uint64_t steady_block_bytes{2 * 1024 * 1024};
    bool fresh_connection_per_block{true};
    /// Extension: adapt the rate mid-stream from per-block throughput
    /// measurements (the paper models a fixed selection).
    bool adaptive{false};

    [[nodiscard]] static Profile pc();
    [[nodiscard]] static Profile ipad();
    [[nodiscard]] static Profile android();
  };

  NetflixClient(sim::Simulator& sim, FetchManager& fetches, const video::VideoMeta& video,
                Profile profile, double access_bandwidth_bps, ByteSink sink);

  void start();
  void stop();

  /// Hook for FetchManager::set_on_retry: a request timed out and is being
  /// retried. In adaptive mode this forces a one-rung bitrate downswitch so
  /// the re-requested blocks are cheaper to recover.
  void on_fetch_retry(std::uint32_t attempt);

  /// Ladder rate selected for steady-state playback (current rate when the
  /// adaptive extension is on).
  [[nodiscard]] double selected_rate_bps() const { return selected_rate_bps_; }
  [[nodiscard]] std::uint64_t bytes_fetched() const { return fetched_; }
  [[nodiscard]] std::uint64_t buffering_bytes_expected() const;
  [[nodiscard]] bool in_steady_state() const { return steady_; }
  /// Number of mid-stream rate switches (adaptive mode only).
  [[nodiscard]] std::size_t rate_switches() const {
    return controller_.has_value() ? controller_->switch_count() : 0;
  }

 private:
  void on_fragment_done();
  void on_cycle();
  void fetch_block();
  void update_cycle_period();

  sim::Simulator& sim_;
  FetchManager& fetches_;
  video::VideoMeta video_;
  Profile profile_;
  ByteSink sink_;
  double selected_rate_bps_{0.0};
  sim::PeriodicTimer cycle_timer_;
  std::size_t fragments_pending_{0};
  std::uint64_t offset_{0};
  std::uint64_t fetched_{0};
  bool steady_{false};
  bool stopped_{false};
  bool block_in_flight_{false};

  // Adaptive extension state.
  std::optional<AdaptiveRateController> controller_;
  double playback_start_s_{-1.0};
  double content_buffered_s_{0.0};
};

}  // namespace vstream::streaming
