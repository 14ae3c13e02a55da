// Zero-copy trace views: non-owning, lazily filtered windows onto a
// `PacketTrace`.
//
// The paper's methodology (§2, §5) repeatedly restricts a capture — to the
// video host's connections, to one direction, to everything but tagged
// cross-traffic — before analysing it. A `TraceView` expresses each
// restriction as a predicate evaluated during iteration instead of a copy
// of the trace: composing filters never allocates, and the analysis layer
// walks the single owned vector in place.
//
// Views are value types the size of a pointer plus a small filter; pass
// them by value. A view never outlives its trace — holders of a view must
// keep the underlying `PacketTrace` alive (the session result owns it).
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "capture/trace.hpp"

namespace vstream::capture {

/// Conjunction of the two restriction predicates the analysis layer
/// needs. Unset fields match everything, so the default filter passes every
/// record through.
struct TraceFilter {
  std::optional<net::Direction> direction;
  std::optional<std::uint8_t> host;

  [[nodiscard]] bool matches(const PacketRecord& p) const {
    if (direction && p.direction != *direction) return false;
    if (host && p.host != *host) return false;
    return true;
  }

  [[nodiscard]] bool pass_through() const { return !direction && !host; }
};

class TraceView {
 public:
  /// Forward iterator that skips records failing the view's filter.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PacketRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const PacketRecord*;
    using reference = const PacketRecord&;

    iterator() = default;
    iterator(const PacketRecord* cur, const PacketRecord* end, const TraceFilter* filter)
        : cur_{cur}, end_{end}, filter_{filter} {
      advance_to_match();
    }

    reference operator*() const { return *cur_; }
    pointer operator->() const { return cur_; }

    iterator& operator++() {
      ++cur_;
      advance_to_match();
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++*this;
      return copy;
    }

    friend bool operator==(const iterator& a, const iterator& b) { return a.cur_ == b.cur_; }
    friend bool operator!=(const iterator& a, const iterator& b) { return a.cur_ != b.cur_; }

   private:
    void advance_to_match() {
      if (filter_ == nullptr) return;
      while (cur_ != end_ && !filter_->matches(*cur_)) ++cur_;
    }

    const PacketRecord* cur_{nullptr};
    const PacketRecord* end_{nullptr};
    const TraceFilter* filter_{nullptr};
  };

  /// Default view: empty, matches nothing. Lets holders default-construct
  /// and rebind later.
  TraceView() = default;

  /// Implicit on purpose: every API that used to take `const PacketTrace&`
  /// now takes a TraceView, and existing call sites keep compiling.
  TraceView(const PacketTrace& trace) : trace_{&trace} {}  // NOLINT(google-explicit-constructor)

  // -- combinators ---------------------------------------------------------
  // Each returns a narrowed copy of the view; the underlying trace is
  // shared, never duplicated.

  /// Restrict to one direction (paper: down = server->viewer payload).
  [[nodiscard]] TraceView direction(net::Direction d) const {
    TraceView out = *this;
    out.filter_.direction = d;
    return out;
  }

  /// Restrict to one server host — the §2 "only the TCP connections used to
  /// transfer the video content" step (host 0 is the video CDN).
  [[nodiscard]] TraceView host(std::uint8_t h) const {
    TraceView out = *this;
    out.filter_.host = h;
    return out;
  }

  // -- iteration -----------------------------------------------------------

  [[nodiscard]] iterator begin() const {
    const PacketRecord* first = trace_ == nullptr ? nullptr : trace_->packets.data();
    const PacketRecord* last = first == nullptr ? nullptr : first + trace_->packets.size();
    return iterator{first, last, &filter_};
  }
  [[nodiscard]] iterator end() const {
    const PacketRecord* first = trace_ == nullptr ? nullptr : trace_->packets.data();
    const PacketRecord* last = first == nullptr ? nullptr : first + trace_->packets.size();
    return iterator{last, last, &filter_};
  }

  [[nodiscard]] bool empty() const { return begin() == end(); }

  /// Number of records passing the filter. O(n) when filtered, O(1) on a
  /// pass-through view.
  [[nodiscard]] std::size_t count() const;

  // -- metadata passthrough ------------------------------------------------

  [[nodiscard]] const std::string& label() const;
  [[nodiscard]] double encoding_bps() const { return trace_ == nullptr ? 0.0 : trace_->encoding_bps; }
  [[nodiscard]] double duration_s() const { return trace_ == nullptr ? 0.0 : trace_->duration_s; }

  [[nodiscard]] const TraceFilter& filter() const { return filter_; }
  [[nodiscard]] const PacketTrace* underlying() const { return trace_; }

  // -- aggregates ----------------------------------------------------------

  /// Payload bytes travelling down (server -> viewer), first transmissions
  /// and retransmissions included.
  [[nodiscard]] std::uint64_t down_payload_bytes() const;

  /// Number of distinct TCP connections observed.
  [[nodiscard]] std::size_t connection_count() const;

  /// Fraction of down-direction payload bytes that were retransmissions.
  [[nodiscard]] double retransmission_fraction() const;

  /// Cumulative (time, downloaded bytes) curve of down-direction payload —
  /// the "Download Amount" axis of Figs 1, 2a, 6a, 7a, 10.
  struct CurvePoint {
    double t_s;
    std::uint64_t bytes;
  };
  [[nodiscard]] std::vector<CurvePoint> download_curve() const;

  /// Client receive-window time series from up-direction segments — the
  /// "Receive Window" axis of Figs 2b and 6a.
  struct WindowPoint {
    double t_s;
    std::uint64_t window_bytes;
  };
  [[nodiscard]] std::vector<WindowPoint> receive_window_series() const;

  /// Copy the filtered records into an owned trace (metadata included).
  /// The one sanctioned way to materialize a filter result — e.g. before
  /// writing a pcap of the video connections only.
  [[nodiscard]] PacketTrace materialize() const;

 private:
  const PacketTrace* trace_{nullptr};
  TraceFilter filter_;
};

}  // namespace vstream::capture
