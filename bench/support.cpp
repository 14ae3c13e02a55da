#include "support.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/json.hpp"
#include "streaming/session_builder.hpp"

namespace vstream::bench {
namespace {

std::string sanitize_for_filename(const std::string& s) {
  std::string out;
  for (const char c : s) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

}  // namespace

std::string csv_dir() {
  if (const char* env = std::getenv("VSTREAM_BENCH_CSV_DIR")) return env;
  return {};
}

std::size_t sessions_per_sweep() {
  if (const char* env = std::getenv("VSTREAM_BENCH_SESSIONS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 30;
}

namespace {

SessionOutcome analyze_only(const streaming::SessionConfig& config) {
  SessionOutcome out;
  out.result = streaming::run_session(config);
  out.analysis = analysis::analyze_on_off(out.result.trace);
  out.decision = analysis::classify_strategy(out.analysis, out.result.trace);
  return out;
}

}  // namespace

SessionOutcome run_and_analyze(const streaming::SessionConfig& config) {
  SessionOutcome out = analyze_only(config);
  RunTelemetry::instance().record(out);
  return out;
}

std::vector<SessionOutcome> run_and_analyze_all(
    const std::vector<streaming::SessionConfig>& configs) {
  const runner::ParallelSweep pool;
  // Workers touch no shared state (each session is its own world); the
  // RunTelemetry singleton is not thread-safe, so the fold happens here,
  // serially, in submission order, whatever the worker count. Each worker
  // times its own run/analyze phases against the profiler — distinct
  // cache-line-padded cells, no synchronization on the hot path.
  runner::SweepProfiler profiler{pool.jobs()};
  auto out = pool.map<SessionOutcome>(configs.size(), [&configs, &profiler](std::size_t i) {
    const std::size_t worker = runner::ParallelSweep::current_worker();
    SessionOutcome o;
    {
      const runner::SweepProfiler::Scope run_scope{&profiler, worker, runner::SweepPhase::kRun};
      o.result = streaming::run_session(configs[i]);
    }
    const runner::SweepProfiler::Scope analyze_scope{&profiler, worker,
                                                     runner::SweepPhase::kAnalyze};
    o.analysis = analysis::analyze_on_off(o.result.trace);
    o.decision = analysis::classify_strategy(o.analysis, o.result.trace);
    return o;
  });
  {
    const runner::SweepProfiler::Scope merge_scope{&profiler, 0, runner::SweepPhase::kMerge};
    for (const auto& outcome : out) RunTelemetry::instance().record(outcome);
  }
  RunTelemetry::instance().record_sweep(profiler.summary());
  return out;
}

streaming::SessionConfig make_config(streaming::Service service, video::Container container,
                                     streaming::Application application, net::Vantage vantage,
                                     const video::VideoMeta& video, std::uint64_t seed) {
  return streaming::SessionBuilder{}
      .service(service)
      .container(container)
      .application(application)
      .vantage(vantage)
      .video(video)
      .capture_duration_s(kCaptureSeconds)
      .seed(seed)
      .build();
}

std::vector<SessionOutcome> sweep(streaming::Service service, video::Container container,
                                  streaming::Application application, net::Vantage vantage,
                                  video::DatasetId dataset, std::size_t count,
                                  std::uint64_t seed) {
  sim::Rng rng{seed};
  const auto ds = video::make_dataset(dataset, rng, count);
  std::vector<streaming::SessionConfig> configs;
  configs.reserve(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    configs.push_back(
        make_config(service, container, application, vantage, ds.videos[i], seed + 1000 + i));
  }
  return run_and_analyze_all(configs);
}

void print_header(const std::string& title, const std::string& paper_reference) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_reference.c_str());
  std::printf("================================================================\n");
}

namespace {
constexpr double kQuantiles[] = {0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95};
}

void print_cdf(const std::string& label, const stats::EmpiricalCdf& cdf, const std::string& unit,
               double scale) {
  std::printf("%-28s (n=%zu, %s)\n", label.c_str(), cdf.size(), unit.c_str());
  if (cdf.empty()) {
    std::printf("  (no samples)\n");
    return;
  }
  for (const double q : kQuantiles) {
    std::printf("  F(x)=%.2f  x=%12.4g\n", q, cdf.inverse(q) * scale);
  }
}

void print_cdf_table(const std::vector<std::pair<std::string, stats::EmpiricalCdf>>& cdfs,
                     const std::string& unit, double scale) {
  if (const auto dir = csv_dir(); !dir.empty()) {
    for (const auto& [label, cdf] : cdfs) {
      if (cdf.empty()) continue;
      std::ofstream out{dir + "/cdf_" + sanitize_for_filename(label) + ".csv"};
      out << "x_" << unit << ",F\n";
      for (const auto& pt : cdf.points()) out << pt.x * scale << ',' << pt.f << '\n';
    }
  }
  std::printf("%10s", ("x [" + unit + "]").c_str());
  for (const auto& [label, cdf] : cdfs) std::printf("  %14s", label.c_str());
  std::printf("\n");
  for (const double q : kQuantiles) {
    std::printf("  F=%5.2f ", q);
    for (const auto& [label, cdf] : cdfs) {
      if (cdf.empty()) {
        std::printf("  %14s", "-");
      } else {
        std::printf("  %14.4g", cdf.inverse(q) * scale);
      }
    }
    std::printf("\n");
  }
}

void print_download_curve(const std::string& label, capture::TraceView trace, double t_max_s,
                          double step_s) {
  const auto curve = trace.download_curve();
  if (const auto dir = csv_dir(); !dir.empty()) {
    std::ofstream out{dir + "/curve_" + sanitize_for_filename(label) + ".csv"};
    out << "t_s,bytes\n";
    for (const auto& pt : curve) {
      if (pt.t_s <= t_max_s) out << pt.t_s << ',' << pt.bytes << '\n';
    }
  }
  std::printf("%s: download amount over time\n", label.c_str());
  std::printf("  %8s %12s\n", "t [s]", "MB");
  std::size_t i = 0;
  for (double t = step_s; t <= t_max_s + 1e-9; t += step_s) {
    std::uint64_t bytes = 0;
    while (i < curve.size() && curve[i].t_s <= t) bytes = curve[i++].bytes;
    if (i > 0) bytes = curve[i - 1].bytes;
    if (!curve.empty() && curve[0].t_s > t) bytes = 0;
    std::printf("  %8.1f %12.3f\n", t, static_cast<double>(bytes) / 1048576.0);
  }
}

void print_window_summary(const std::string& label, capture::TraceView trace) {
  const auto series = trace.receive_window_series();
  if (series.empty()) {
    std::printf("%s: no window samples\n", label.c_str());
    return;
  }
  std::uint64_t min_w = series.front().window_bytes;
  std::uint64_t max_w = min_w;
  for (const auto& p : series) {
    min_w = std::min(min_w, p.window_bytes);
    max_w = std::max(max_w, p.window_bytes);
  }
  const std::size_t zero_episodes = analysis::count_zero_window_episodes(trace);
  std::printf("%s: receive window min=%llu kB max=%llu kB zero-window episodes=%zu\n",
              label.c_str(), static_cast<unsigned long long>(min_w / 1024),
              static_cast<unsigned long long>(max_w / 1024), zero_episodes);
}

// ---- RunTelemetry --------------------------------------------------------

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  return v[mid];
}

/// Telemetry numbers print ten significant digits.
constexpr obs::json::Format kDigits{10};

}  // namespace

RunTelemetry& RunTelemetry::instance() {
  static RunTelemetry telemetry;
  return telemetry;
}

void RunTelemetry::init(const std::string& name, int* argc, char** argv) {
  name_ = name;
  start_ = std::chrono::steady_clock::now();

  // Strip `--metrics-out [path]` / `--metrics-out=path` before
  // google-benchmark rejects the unknown flag.
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--metrics-out") == 0) {
      if (i + 1 < *argc && argv[i + 1][0] != '-') {
        out_path_ = argv[++i];
      } else {
        out_path_ = "BENCH_" + name_ + ".json";
      }
      continue;
    }
    if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      out_path_ = arg + 14;
      if (out_path_.empty()) out_path_ = "BENCH_" + name_ + ".json";
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
}

void RunTelemetry::record(const SessionOutcome& outcome) {
  if (!enabled()) return;
  ++sessions_;
  sim_time_s_ += outcome.result.trace.duration_s;
  sim_events_ += outcome.result.sim_events;
  sim_max_events_pending_ = std::max(sim_max_events_pending_, outcome.result.sim_max_events_pending);
  block_sizes_bytes_.insert(block_sizes_bytes_.end(), outcome.analysis.block_sizes_bytes.begin(),
                            outcome.analysis.block_sizes_bytes.end());
  if (outcome.analysis.has_steady_state()) {
    accumulation_ratios_.push_back(
        outcome.analysis.accumulation_ratio(outcome.result.encoding_bps_true));
  }
  merged_.merge_from(outcome.result.metrics);
}

void RunTelemetry::record_sweep(const runner::SweepProfiler::Summary& summary) {
  if (!enabled()) return;
  sweep_wall_s_ += summary.wall_s;
  sweep_busy_s_ += summary.busy_s();
  sweep_capacity_s_ += summary.wall_s * static_cast<double>(summary.workers);
  sweep_tasks_ += summary.tasks();
  sweep_workers_ = std::max(sweep_workers_, summary.workers);
}

void RunTelemetry::note_metric(const std::string& name, double value) {
  if (!enabled()) return;
  extra_[name] = value;
}

void RunTelemetry::finalize() {
  if (!enabled()) return;
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();

  if (sweep_capacity_s_ > 0.0) {
    extra_["sweep_wall_s"] = sweep_wall_s_;
    extra_["sweep_busy_s"] = sweep_busy_s_;
    extra_["sweep_tasks"] = static_cast<double>(sweep_tasks_);
    extra_["sweep_workers"] = static_cast<double>(sweep_workers_);
    extra_["sweep_utilization"] = sweep_busy_s_ / sweep_capacity_s_;
  }
  obs::json::Object extra;
  for (const auto& [k, v] : extra_) extra.number(k, v, kDigits);
  const std::string out =
      obs::json::Object{}
          .string("bench", name_)
          .number("wall_time_s", wall_s, kDigits)
          .integer("sessions", sessions_)
          .number("sim_time_s", sim_time_s_, kDigits)
          .integer("sim_events", sim_events_)
          .number("events_per_sec",
                  wall_s > 0.0 ? static_cast<double>(sim_events_) / wall_s : std::nan(""),
                  kDigits)
          .integer("sim_max_events_pending", sim_max_events_pending_)
          .number("median_block_kb", median_of(block_sizes_bytes_) / 1024.0, kDigits)
          .number("median_accumulation_ratio", median_of(accumulation_ratios_), kDigits)
          .raw("extra", extra.close())
          .raw("metrics", merged_.to_json())
          .close() +
      "\n";

  std::ofstream file{out_path_};
  if (!file) {
    std::fprintf(stderr, "RunTelemetry: cannot write %s\n", out_path_.c_str());
    return;
  }
  file << out;
  std::printf("\n[telemetry] wrote %s (%zu sessions, %.1f s wall)\n", out_path_.c_str(),
              sessions_, wall_s);
}

}  // namespace vstream::bench
