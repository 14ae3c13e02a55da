#include "streaming/fetch.hpp"

#include <stdexcept>

#include "check/contracts.hpp"
#include "obs/context.hpp"

namespace vstream::streaming {

FetchManager::FetchManager(sim::Simulator& sim, tcp::Fabric& fabric, video::VideoMeta video,
                           tcp::TcpOptions client_options, tcp::TcpOptions server_options,
                           RetryPolicy retry)
    : sim_{sim},
      fabric_{fabric},
      video_{std::move(video)},
      client_options_{client_options},
      server_options_{server_options},
      retry_{retry} {
  retry_.validate();
  if (obs::ObsContext* obs = sim_.obs()) {
    ctr_retries_ = &obs->metrics().counter("fetch.retries");
    ctr_timeouts_ = &obs->metrics().counter("fetch.timeouts");
  }
}

void FetchManager::stop() {
  stopped_ = true;
  for (auto& fetch : fetches_) fetch->watchdog.cancel();
}

bool FetchManager::idle() const {
  if (pending_retries_ > 0) return false;
  for (const auto& fetch : fetches_) {
    if (fetch->watchdog.pending()) return false;
  }
  return true;
}

void FetchManager::fetch_range(http::ByteRange range, ByteSink sink,
                               std::function<void()> on_done) {
  if (stopped_) return;
  auto& conn = fabric_.create_connection(client_options_, server_options_);
  ++connections_opened_;
  auto server =
      std::make_unique<VideoStreamServer>(sim_, conn.server(), video_, ServerPacing::bulk());
  start_fetch(conn, std::move(server), range, std::move(sink), std::move(on_done));
}

void FetchManager::start_fetch(tcp::Connection& conn, std::unique_ptr<VideoStreamServer> server,
                               http::ByteRange range, ByteSink sink,
                               std::function<void()> on_done) {
  auto fetch = std::make_unique<Fetch>();
  fetch->connection = &conn;
  fetch->server = std::move(server);
  fetch->expected_body = range.length();
  fetch->sink = std::move(sink);
  fetch->on_done = std::move(on_done);

  Fetch* raw = fetch.get();
  fetches_.push_back(std::move(fetch));
  raw->span = obs::open_span(sim_, obs::SpanCategory::kFetch, "fetch",
                             conn.client().connection_id());

  conn.client().set_on_readable([this, raw] { on_readable(*raw); });
  conn.client().set_on_established([this, raw, range] {
    http::HttpClient client{raw->connection->client()};
    client.send_request(http::make_video_request(video_.id, range));
  });
  conn.open();
  arm_watchdog(*raw);
}

void FetchManager::fetch_range_persistent(http::ByteRange range, ByteSink sink,
                                          std::function<void()> on_done) {
  if (stopped_) return;
  const bool first_use = persistent_ == nullptr;
  if (first_use) {
    persistent_ = &fabric_.create_connection(client_options_, server_options_);
    ++connections_opened_;
    persistent_server_ = std::make_unique<VideoStreamServer>(sim_, persistent_->server(), video_,
                                                             ServerPacing::bulk());
  }

  auto fetch = std::make_unique<Fetch>();
  fetch->connection = persistent_;
  fetch->expected_body = range.length();
  fetch->sink = std::move(sink);
  fetch->on_done = std::move(on_done);
  fetch->persistent = true;
  Fetch* raw = fetch.get();
  fetches_.push_back(std::move(fetch));
  persistent_queue_.push_back(raw);
  raw->span = obs::open_span(sim_, obs::SpanCategory::kFetch, "fetch",
                             persistent_->client().connection_id());

  const auto issue = [this, raw, range] {
    raw->read_before = persistent_->client().total_read();
    http::HttpClient client{persistent_->client()};
    client.send_request(http::make_video_request(video_.id, range));
    arm_watchdog(*raw);
  };

  if (first_use) {
    persistent_->client().set_on_readable([this] {
      if (!persistent_queue_.empty()) on_readable(*persistent_queue_.front());
    });
    persistent_->client().set_on_established(issue);
    persistent_->open();
    arm_watchdog(*raw);
  } else if (persistent_queue_.size() == 1 && persistent_ != nullptr &&
             persistent_->client().state() == tcp::TcpState::kEstablished) {
    // Idle established connection: issue immediately. Otherwise the fetch
    // is issued when its predecessor completes.
    issue();
  } else if (persistent_queue_.size() == 1 && persistent_ == nullptr) {
    // The persistent connection died on a timeout and the queue drained
    // before this fetch arrived: bring a fresh one up for it.
    reopen_persistent();
  }
}

// ---- resilience ----------------------------------------------------------

void FetchManager::arm_watchdog(Fetch& fetch) {
  if (!retry_.enabled) return;
  fetch.watchdog.cancel();
  fetch.progress_mark = fetch.connection != nullptr ? fetch.connection->client().total_read() : 0;
  Fetch* raw = &fetch;
  fetch.watchdog = sim_.schedule_after(retry_.request_timeout, [this, raw] { on_watchdog(*raw); });
}

void FetchManager::on_watchdog(Fetch& fetch) {
  if (stopped_ || fetch.done) return;
  const std::uint64_t read_now =
      fetch.connection != nullptr ? fetch.connection->client().total_read() : 0;
  if (read_now > fetch.progress_mark) {
    // Bytes flowed since the last check: healthy (or recovering) — re-arm.
    arm_watchdog(fetch);
    return;
  }
  // No progress for a whole timeout: the request is considered hung.
  ++timeouts_;
  if (ctr_timeouts_ != nullptr) ctr_timeouts_->inc();
  abandon_connection(fetch);
  if (fetch.attempts >= retry_.max_retries) {
    give_up(fetch);
  } else {
    schedule_retry(fetch);
  }
}

void FetchManager::abandon_connection(Fetch& fetch) {
  if (fetch.connection == nullptr) return;
  if (fetch.persistent && fetch.connection == persistent_) {
    // The persistent connection serves the whole queue; tear it down once.
    persistent_->client().set_on_readable({});
    persistent_->client().set_on_established({});
    if (persistent_server_) {
      persistent_server_->stop();
      retired_servers_.push_back(std::move(persistent_server_));
    }
    for (Fetch* queued : persistent_queue_) queued->connection = nullptr;
    persistent_ = nullptr;
  } else if (!fetch.persistent) {
    fetch.connection->client().set_on_readable({});
    fetch.connection->client().set_on_established({});
    if (fetch.server) {
      fetch.server->stop();
      retired_servers_.push_back(std::move(fetch.server));
    }
  }
  fetch.connection = nullptr;
}

void FetchManager::emit_retry_event(const Fetch& fetch, double backoff_s, bool gave_up) {
  if (obs::ObsContext* obs = sim_.obs(); obs != nullptr && obs->trace().active()) {
    obs::FetchRetry ev;
    ev.t_s = sim_.now().to_seconds();
    ev.attempt = fetch.attempts;
    ev.backoff_s = backoff_s;
    ev.remaining_bytes = fetch.expected_body - fetch.body_delivered;
    ev.gave_up = gave_up;
    obs->trace().emit(ev);
  }
}

void FetchManager::schedule_retry(Fetch& fetch) {
  ++fetch.attempts;
  ++retries_;
  if (ctr_retries_ != nullptr) ctr_retries_->inc();
  const sim::Duration backoff = retry_.backoff_for(fetch.attempts);
  emit_retry_event(fetch, backoff.to_seconds(), false);
  if (on_retry_) on_retry_(fetch.attempts);
  Fetch* raw = &fetch;
  ++pending_retries_;
  sim_.schedule_after(backoff, [this, raw] {
    --pending_retries_;
    if (stopped_ || raw->done) return;
    if (raw->persistent) {
      reopen_persistent();
    } else {
      reissue_fresh(*raw);
    }
  });
}

/// Re-request the still-missing tail of `fetch` on a brand-new connection.
void FetchManager::reissue_fresh(Fetch& fetch) {
  // Per-attempt accounting restarts; the bytes already delivered to the
  // sink stay counted, only the owed remainder is re-requested.
  fetch.expected_body -= fetch.body_delivered;
  fetch.body_delivered = 0;
  fetch.head_seen = false;
  fetch.head_bytes = 0;
  fetch.read_before = 0;
  VSTREAM_INVARIANT(fetch.expected_body > 0, "retry of an already-complete fetch");

  auto& conn = fabric_.create_connection(client_options_, server_options_);
  ++connections_opened_;
  fetch.connection = &conn;
  fetch.server =
      std::make_unique<VideoStreamServer>(sim_, conn.server(), video_, ServerPacing::bulk());

  Fetch* raw = &fetch;
  const http::ByteRange range{0, fetch.expected_body - 1};
  conn.client().set_on_readable([this, raw] { on_readable(*raw); });
  conn.client().set_on_established([this, raw, range] {
    http::HttpClient client{raw->connection->client()};
    client.send_request(http::make_video_request(video_.id, range));
  });
  conn.open();
  arm_watchdog(fetch);
}

/// Bring up a fresh persistent connection and reissue the queue head's
/// remaining range on it; successors follow the normal completion chain.
void FetchManager::reopen_persistent() {
  if (stopped_ || persistent_queue_.empty() || persistent_ != nullptr) return;
  Fetch& front = *persistent_queue_.front();
  front.expected_body -= front.body_delivered;
  front.body_delivered = 0;
  front.head_seen = false;
  front.head_bytes = 0;
  VSTREAM_INVARIANT(front.expected_body > 0, "retry of an already-complete fetch");

  persistent_ = &fabric_.create_connection(client_options_, server_options_);
  ++connections_opened_;
  persistent_server_ = std::make_unique<VideoStreamServer>(sim_, persistent_->server(), video_,
                                                           ServerPacing::bulk());
  for (Fetch* queued : persistent_queue_) queued->connection = persistent_;

  Fetch* raw = &front;
  const http::ByteRange range{0, front.expected_body - 1};
  persistent_->client().set_on_readable([this] {
    if (!persistent_queue_.empty()) on_readable(*persistent_queue_.front());
  });
  persistent_->client().set_on_established([this, raw, range] {
    raw->read_before = persistent_->client().total_read();
    http::HttpClient client{persistent_->client()};
    client.send_request(http::make_video_request(video_.id, range));
  });
  persistent_->open();
  arm_watchdog(front);
}

/// Retry budget exhausted: complete the fetch short so the client moves on.
void FetchManager::give_up(Fetch& fetch) {
  ++abandoned_;
  emit_retry_event(fetch, 0.0, true);
  fetch.span.close("abandoned");
  finish(fetch);
}

/// Common completion: mark done, advance the persistent queue, fire on_done.
void FetchManager::finish(Fetch& fetch) {
  fetch.done = true;
  fetch.watchdog.cancel();
  // No-op after give_up already closed it as "abandoned".
  fetch.span.close(fetch.attempts == 0 ? "complete" : "complete_retried");
  if (fetch.persistent && !persistent_queue_.empty() && persistent_queue_.front() == &fetch) {
    persistent_queue_.erase(persistent_queue_.begin());
    if (!persistent_queue_.empty()) {
      if (persistent_ != nullptr) {
        Fetch* next = persistent_queue_.front();
        next->read_before = persistent_->client().total_read();
        http::HttpClient client{persistent_->client()};
        const http::ByteRange range{0, next->expected_body - 1};
        // Offsets are irrelevant to traffic shape; length drives bytes.
        client.send_request(http::make_video_request(video_.id, range));
        arm_watchdog(*next);
      } else {
        // The connection died with the queue non-empty: reconnect for the
        // successor.
        reopen_persistent();
      }
    }
  }
  if (fetch.on_done) fetch.on_done();
}

void FetchManager::on_readable(Fetch& fetch) {
  if (stopped_ || fetch.done || fetch.connection == nullptr) return;
  auto& endpoint = fetch.connection->client();
  auto result = endpoint.read(UINT64_MAX);
  for (auto& t : result.tags) {
    if (t.type() == typeid(http::HttpResponse)) {
      const auto head = std::any_cast<http::HttpResponse>(std::move(t));
      fetch.head_bytes = head.wire_size();
      fetch.head_seen = true;
      fetch.span.mark();  // first response byte of the (possibly retried) fetch
      // The server may clamp a range that overruns the resource (a 206 with
      // a shorter Content-Length than the request asked for). Believe the
      // head: without this the fetch waits forever for bytes the server
      // never owed — indistinguishable from a hang to the watchdog.
      if (head.content_length < fetch.expected_body) {
        fetch.expected_body = head.content_length;
      }
    }
  }
  if (!fetch.head_seen) return;

  const std::uint64_t stream_read = endpoint.total_read() - fetch.read_before;
  const std::uint64_t body_now =
      stream_read > fetch.head_bytes ? stream_read - fetch.head_bytes : 0;
  if (body_now > fetch.body_delivered) {
    const std::uint64_t delta = body_now - fetch.body_delivered;
    fetch.body_delivered = body_now;
    body_bytes_ += delta;
    if (fetch.sink) fetch.sink(delta);
  }
  // Requests on a shared connection are serialized, so the bytes attributed
  // to this fetch can never exceed the range it asked for.
  VSTREAM_INVARIANT(fetch.body_delivered <= fetch.expected_body,
                    "fetch accounting attributed more body bytes than the requested range");
  if (fetch.body_delivered >= fetch.expected_body) finish(fetch);
}

}  // namespace vstream::streaming
