// Cross-traffic generator: competing load on a shared link.
//
// The paper's vantage points sat behind shared uplinks (500 Mbps Research,
// 1 Gbps Academic); the video flow competed with other traffic for the
// bottleneck queue. This generator injects Poisson packet bursts onto a
// link so congestion loss arises *inside* the queue rather than from a
// random oracle — used by the loss-model ablation and available to any
// experiment that wants endogenous congestion.
#pragma once

#include <cstdint>

#include "net/link.hpp"
#include "sim/periodic_timer.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace vstream::net {

class CrossTraffic {
 public:
  struct Config {
    /// Long-run average offered load in bits/s.
    double mean_rate_bps{10e6};
    /// Connection id used to tag the packets (so analyses can exclude them).
    std::uint64_t connection_id{0xC0FFEE};
  };

  CrossTraffic(sim::Simulator& sim, Link& link, Config config, sim::Rng rng);

  void start();
  void stop();

  [[nodiscard]] std::uint64_t packets_injected() const { return packets_; }
  [[nodiscard]] std::uint64_t bytes_injected() const { return bytes_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  void schedule_next();
  void inject_burst();

  sim::Simulator& sim_;
  Link& link_;
  Config config_;
  sim::Rng rng_;
  sim::EventHandle next_;
  bool running_{false};
  std::uint64_t packets_{0};
  std::uint64_t bytes_{0};
};

}  // namespace vstream::net
