// Video player model: playback buffer, startup threshold, stalls, and user
// interruption due to lack of interest (Sections 2, 5.3, 6.2).
//
// The player is fed downloaded bytes by the streaming client and consumes
// them at the encoding rate once playback starts. It tracks everything the
// paper's discussion needs: buffer occupancy over time, stalls (empty
// buffer), and — when the viewer abandons the video after watching a
// fraction beta — the bytes downloaded but never watched ("unused bytes").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "obs/span.hpp"
#include "sim/periodic_timer.hpp"
#include "sim/simulator.hpp"

namespace vstream::obs {
class Counter;
}

namespace vstream::streaming {

struct PlayerConfig {
  double encoding_bps{1e6};
  double duration_s{180.0};
  /// Seconds of content required in the buffer before playback starts.
  double start_threshold_s{2.0};
  /// Fraction of the video after which the viewer loses interest and
  /// interrupts (beta in the paper's model); absent = watch to the end.
  std::optional<double> watch_fraction;
};

struct PlayerStats {
  bool started{false};
  double start_time_s{0.0};       ///< when playback began
  double watched_s{0.0};          ///< content seconds actually played
  std::uint64_t downloaded_bytes{0};
  std::uint64_t consumed_bytes{0};
  std::uint32_t stall_count{0};
  double stall_time_s{0.0};
  /// Stalls playback actually recovered from (resumed after the buffer
  /// refilled) — the paper-facing rebuffer count under fault injection.
  std::uint32_t rebuffer_count{0};
  double longest_stall_s{0.0};  ///< longest single recovered stall episode
  std::uint64_t max_buffered_bytes{0};  ///< peak playback-buffer occupancy
  bool interrupted{false};
  double interrupted_at_s{0.0};   ///< wall-clock time of the interruption
  bool finished{false};

  /// Bytes downloaded but never played (the paper's "unused bytes").
  [[nodiscard]] std::uint64_t unused_bytes() const {
    return downloaded_bytes > consumed_bytes ? downloaded_bytes - consumed_bytes : 0;
  }
  /// Current playback buffer, in bytes.
  [[nodiscard]] std::uint64_t buffered_bytes() const { return unused_bytes(); }
};

class Player {
 public:
  Player(sim::Simulator& sim, PlayerConfig config);

  /// Feed freshly downloaded video bytes (client calls this on every read).
  void on_bytes_downloaded(std::uint64_t bytes);

  /// Viewer abandons the session now (also triggered internally when
  /// `watch_fraction` of the content has been played).
  void interrupt();

  /// Fired once when the viewer interrupts (lack of interest) — the session
  /// uses it to stop the download.
  void set_on_interrupt(std::function<void()> cb) { on_interrupt_ = std::move(cb); }
  /// Fired once when the whole video has been played out.
  void set_on_finished(std::function<void()> cb) { on_finished_ = std::move(cb); }

  [[nodiscard]] const PlayerStats& stats() const { return stats_; }
  [[nodiscard]] bool playing() const { return playing_; }
  [[nodiscard]] double buffered_playback_s() const;
  [[nodiscard]] const PlayerConfig& config() const { return config_; }

 private:
  void tick();
  void maybe_start();

  sim::Simulator& sim_;
  PlayerConfig config_;
  sim::PeriodicTimer clock_;
  PlayerStats stats_;
  bool playing_{false};
  bool done_{false};
  double stall_started_s_{-1.0};  ///< sim time the current stall began; <0 = none
  /// Current playback phase as an episode span: "buffering" → "steady" ⇄
  /// "stall"; closed with the transition that ended the phase.
  obs::Span phase_span_;
  obs::Counter* ctr_stalls_{nullptr};
  obs::Counter* ctr_interrupts_{nullptr};
  obs::Counter* ctr_rebuffers_{nullptr};
  std::function<void()> on_interrupt_;
  std::function<void()> on_finished_;
};

}  // namespace vstream::streaming
