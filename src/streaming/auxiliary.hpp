// Auxiliary (non-video) session traffic.
//
// "During a typical streaming session, apart from the video content, the
// streaming servers send other auxiliary data. For example, ... details of
// related videos and advertisements. We restrict ourselves to the TCP
// connections that are used to transfer the video content." (Section 2.)
//
// This module generates that surrounding traffic — page assets, thumbnails,
// an advertisement, and periodic analytics beacons — on connections tagged
// with a non-video host, so the analysis pipeline has to perform the same
// filtering step the paper's did.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "http/exchange.hpp"
#include "sim/periodic_timer.hpp"
#include "sim/rng.hpp"
#include "tcp/connection.hpp"

namespace vstream::streaming {

class AuxiliaryTraffic {
 public:
  struct Config {
    std::uint8_t host{1};            ///< server tag for the aux connections
    std::uint32_t asset_count_min{2};
    std::uint32_t asset_count_max{4};
    std::uint64_t asset_bytes_min{20 * 1024};
    std::uint64_t asset_bytes_max{300 * 1024};
    double start_spread_s{2.0};      ///< assets start within [0, spread)
    /// Analytics beacon: small request/response every period; 0 disables.
    double beacon_period_s{30.0};
    std::uint64_t beacon_bytes{2 * 1024};
  };

  AuxiliaryTraffic(sim::Simulator& sim, tcp::Fabric& fabric, Config config, sim::Rng rng);

  void start();
  void stop();

  [[nodiscard]] std::uint64_t bytes_fetched() const { return bytes_; }
  [[nodiscard]] std::size_t connections_opened() const { return connections_; }
  /// No asset opening waiting on the sim clock and the beacon timer not
  /// armed. Stopping disarms the beacon, but a pending asset opening still
  /// fires (as a no-op).
  [[nodiscard]] bool idle() const {
    return pending_opens_ == 0 && (!beacon_timer_ || !beacon_timer_->running());
  }

 private:
  void open_asset(std::uint64_t bytes, double delay_s);
  void open_beacon_channel();

  sim::Simulator& sim_;
  tcp::Fabric& fabric_;
  Config config_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<http::HttpServer>> servers_;
  std::unique_ptr<sim::PeriodicTimer> beacon_timer_;
  tcp::Connection* beacon_conn_{nullptr};
  std::uint64_t bytes_{0};
  std::size_t connections_{0};
  std::uint32_t pending_opens_{0};  ///< asset openings scheduled, not yet fired
  bool stopped_{false};
};

}  // namespace vstream::streaming
