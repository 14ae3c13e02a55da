// Benchmark-side harness for vstream_e2e: a steady clock, an in-memory span
// log written out as Chrome-trace JSON, percentiles, seed derivation and the
// process's peak RSS.
//
// Spans are recorded around calls into the library's public functions only
// (run_session, build_report, run_topology, classify_capture, ...). Nothing
// here reaches inside a simulated world, so arming the log cannot perturb a
// run's digest; the traced run's per-layer numbers come from these spans and
// the counters the called functions return.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vstream::e2e {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

/// The layer a span is charged to: the src/ module whose public function
/// the span wraps, or the benchmark's own glue.
enum class Layer : std::uint8_t {
  kBench,
  kSim,
  kNet,
  kStreaming,
  kAnalysis,
  kRunner,
  kCheck,
  kModel,
};

[[nodiscard]] const char* to_string(Layer layer);

struct SpanRecord {
  const char* name{""};
  Layer layer{Layer::kBench};
  double start_s{0.0};
  double end_s{0.0};
  std::uint64_t span_id{0};
  std::uint64_t parent_id{0};  ///< 0 for a root span
  std::uint64_t trace_id{0};   ///< session, world or pass index
  std::size_t worker{0};
};

/// Spans kept in memory, one lane per pool worker. A worker appends only to
/// its own lane, so recording takes no lock; lanes are read after the pool
/// has joined. When disabled, scopes cost one branch and read no clock.
class SpanLog {
 public:
  explicit SpanLog(std::size_t workers);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void set_enabled(bool on) { enabled_ = on; }

  /// Parent of the first span a worker other than 0 opens with an empty
  /// stack: the span that fanned the work out. Set it before the fan-out
  /// starts its threads (thread start orders the write before the reads).
  void set_fanout_parent(std::uint64_t span_id) { fanout_parent_ = span_id; }

  class Scope {
   public:
    Scope(SpanLog& log, const char* name, Layer layer, std::uint64_t trace_id,
          std::size_t worker);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// 0 when the log is disabled.
    [[nodiscard]] std::uint64_t id() const { return index_ == kNone ? 0 : id_; }

   private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    SpanLog& log_;
    std::size_t worker_;
    std::size_t index_{kNone};
    std::uint64_t id_{0};
  };

  /// Record a span whose bounds were measured elsewhere (e.g. reconstructed
  /// from a profiler or from call timestamps). Ignored when disabled.
  void add(const char* name, Layer layer, double start_s, double end_s, std::uint64_t trace_id,
           std::size_t worker, std::uint64_t parent_id);

  /// Chrome-trace JSON ("X" events, one track per worker); `other_data` is a
  /// JSON object stored under "otherData".
  [[nodiscard]] std::string chrome_json(const std::string& other_data) const;

 private:
  struct alignas(64) Lane {
    std::vector<SpanRecord> spans;
    std::vector<std::uint64_t> open;  ///< stack of open span ids
    std::uint64_t next_id{1};
  };

  std::uint64_t next_id(std::size_t worker);
  /// Every lane's spans, by start time.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  std::vector<Lane> lanes_;
  bool enabled_{false};
  std::uint64_t fanout_parent_{0};
};

/// Linear-interpolated quantile `q` in [0, 1] of `values` (0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);

/// Deterministic 64-bit seed for item `salt` of the run seeded with `seed`
/// (splitmix64 finalizer).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Peak resident set (VmHWM) and current resident set (VmRSS) of this
/// process in kB; 0 when /proc is unreadable.
[[nodiscard]] std::uint64_t peak_rss_kb();
[[nodiscard]] std::uint64_t current_rss_kb();

/// Ordered name -> value list, printed as a JSON object in insertion order.
using Metrics = std::vector<std::pair<std::string, double>>;

/// `{"a":1.5,"b":2}` with every digit a double carries.
[[nodiscard]] std::string to_json(const Metrics& metrics);
[[nodiscard]] std::string json_string(const std::string& text);

}  // namespace vstream::e2e
