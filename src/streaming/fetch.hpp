// Range-request fetch machinery over fresh or reused TCP connections.
//
// The iPad YouTube client fetched one video with up to 37 successive TCP
// connections carrying ranged GETs (Section 5.1.3); Netflix used "a large
// number of TCP connections" per session (Section 5.2.2) and showed an ack
// clock exactly when a block rode a fresh connection. `FetchManager` gives
// the clients both modes: a fresh connection per fetch, or a persistent
// connection issuing successive ranged GETs.
//
// Resilience: every issued fetch is guarded by a no-progress watchdog on
// the sim clock. When a fault window (net/dynamics.hpp) silences the
// connection, the watchdog times the request out, abandons the connection,
// and — after a bounded exponential backoff (RetryPolicy) — re-establishes
// a fresh TCP connection requesting the still-missing byte range. A fetch
// that exhausts its retry budget completes short instead of hanging the
// client.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "http/exchange.hpp"
#include "obs/span.hpp"
#include "streaming/clients.hpp"
#include "streaming/retry.hpp"
#include "streaming/video_server.hpp"
#include "tcp/connection.hpp"
#include "video/metadata.hpp"

namespace vstream::obs {
class Counter;
}

namespace vstream::streaming {

class FetchManager {
 public:
  FetchManager(sim::Simulator& sim, tcp::Fabric& fabric, video::VideoMeta video,
               tcp::TcpOptions client_options, tcp::TcpOptions server_options,
               RetryPolicy retry = {});

  /// Fetch `range` on a *fresh* connection. `sink` receives body bytes as
  /// they are read; `on_done` fires once the full range has been read (or
  /// the retry budget is exhausted and the fetch is abandoned short).
  void fetch_range(http::ByteRange range, ByteSink sink, std::function<void()> on_done);

  /// Fetch `range` on the persistent connection (created on first use, and
  /// re-established after a timeout).
  void fetch_range_persistent(http::ByteRange range, ByteSink sink,
                              std::function<void()> on_done);

  /// Abort all activity (viewer interruption).
  void stop();

  /// Fired whenever a retry is scheduled, with the fetch's attempt number
  /// (1 for the first retry). Clients use it for bitrate downswitch.
  void set_on_retry(std::function<void(std::uint32_t)> cb) { on_retry_ = std::move(cb); }

  [[nodiscard]] std::size_t connections_opened() const { return connections_opened_; }
  [[nodiscard]] std::uint64_t body_bytes_fetched() const { return body_bytes_; }
  [[nodiscard]] std::uint32_t retries() const { return retries_; }
  [[nodiscard]] std::uint32_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint32_t abandoned() const { return abandoned_; }
  /// No watchdog armed and no retry backoff waiting to fire: nothing on
  /// the sim clock will call back into this manager. A stopped manager's
  /// backoffs still fire (as no-ops), so this can lag stop().
  [[nodiscard]] bool idle() const;

 private:
  struct Fetch {
    tcp::Connection* connection{nullptr};
    std::unique_ptr<VideoStreamServer> server;  ///< empty for persistent reuse
    std::uint64_t expected_body{0};  ///< bytes still owed in the current attempt
    std::uint64_t head_bytes{0};
    bool head_seen{false};
    std::uint64_t body_delivered{0};  ///< body bytes of the current attempt
    std::uint64_t read_before{0};     ///< endpoint total_read at attempt start
    ByteSink sink;
    std::function<void()> on_done;
    bool done{false};
    // Resilience bookkeeping.
    std::uint32_t attempts{0};         ///< retries performed so far
    std::uint64_t progress_mark{0};    ///< endpoint total_read at last watchdog check
    sim::EventHandle watchdog;
    bool persistent{false};
    /// Logical-fetch lifecycle span (issue → first byte → done); survives
    /// retries, so its duration covers backoffs and reissues too. Inert
    /// when the world runs unobserved.
    obs::Span span;
  };

  void start_fetch(tcp::Connection& conn, std::unique_ptr<VideoStreamServer> server,
                   http::ByteRange range, ByteSink sink, std::function<void()> on_done);
  void on_readable(Fetch& fetch);
  void arm_watchdog(Fetch& fetch);
  void on_watchdog(Fetch& fetch);
  void abandon_connection(Fetch& fetch);
  void schedule_retry(Fetch& fetch);
  void reissue_fresh(Fetch& fetch);
  void reopen_persistent();
  void give_up(Fetch& fetch);
  void finish(Fetch& fetch);
  void emit_retry_event(const Fetch& fetch, double backoff_s, bool gave_up);

  sim::Simulator& sim_;
  tcp::Fabric& fabric_;
  video::VideoMeta video_;
  tcp::TcpOptions client_options_;
  tcp::TcpOptions server_options_;
  RetryPolicy retry_;

  std::vector<std::unique_ptr<Fetch>> fetches_;
  tcp::Connection* persistent_{nullptr};
  std::unique_ptr<VideoStreamServer> persistent_server_;
  std::vector<Fetch*> persistent_queue_;  ///< fetches pending on the persistent conn
  /// Servers detached by a retry: stopped, but kept alive until the manager
  /// dies — their endpoints may still surface already-scheduled events.
  std::vector<std::unique_ptr<VideoStreamServer>> retired_servers_;
  std::size_t connections_opened_{0};
  std::uint64_t body_bytes_{0};
  std::uint32_t retries_{0};
  std::uint32_t timeouts_{0};
  std::uint32_t abandoned_{0};
  std::uint32_t pending_retries_{0};  ///< backoff events scheduled, not yet fired
  bool stopped_{false};
  std::function<void(std::uint32_t)> on_retry_;
  obs::Counter* ctr_retries_{nullptr};
  obs::Counter* ctr_timeouts_{nullptr};
};

}  // namespace vstream::streaming
