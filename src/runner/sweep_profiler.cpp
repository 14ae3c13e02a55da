// This file holds the wall-clock RULE_EXEMPT_PREFIXES entry in
// tools/vstream_lint.py: the profiler measures the harness around session
// worlds, never the worlds themselves, and the profiler-clock rule bans it
// from ever sleeping on the clock it reads.
#include "runner/sweep_profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"

namespace vstream::runner {

namespace {

double steady_now_s() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

/// Wall-clock seconds and shares print with six fixed decimals.
constexpr obs::json::Format kDecimals{6, true};

}  // namespace

std::size_t peak_rss_kb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::strtoull(line.c_str() + 6, nullptr, 10));
    }
  }
  return 0;
}

const char* to_string(SweepPhase phase) {
  switch (phase) {
    case SweepPhase::kBuild:
      return "build";
    case SweepPhase::kRun:
      return "run";
    case SweepPhase::kAnalyze:
      return "analyze";
    case SweepPhase::kMerge:
      return "merge";
  }
  return "unknown";
}

SweepProfiler::SweepProfiler(std::size_t workers)
    : cells_(workers > 0 ? workers : 1), epoch_s_{steady_now_s()} {}

SweepProfiler::Scope::Scope(SweepProfiler* profiler, std::size_t worker, SweepPhase phase)
    : profiler_{profiler}, worker_{worker}, phase_{phase}, begin_s_{0.0} {
  if (profiler_ != nullptr) begin_s_ = profiler_->now_s();
}

SweepProfiler::Scope::~Scope() {
  if (profiler_ != nullptr) {
    profiler_->record(worker_, phase_, profiler_->now_s() - begin_s_);
  }
}

void SweepProfiler::record(std::size_t worker, SweepPhase phase, double seconds,
                           std::size_t tasks) {
  if (worker >= cells_.size()) {
    throw std::out_of_range{"SweepProfiler::record: worker index out of range"};
  }
  Cell& cell = cells_[worker];
  const auto p = static_cast<std::size_t>(phase);
  cell.seconds[p] += seconds;
  cell.tasks[p] += tasks;
  // Each record() is one timed batch (Scope always records exactly one
  // task), so its duration is the single-task sample the tail max tracks.
  if (seconds > cell.max_s[p]) cell.max_s[p] = seconds;
}

double SweepProfiler::now_s() const { return steady_now_s(); }

double SweepProfiler::elapsed_s() const { return now_s() - epoch_s_; }

double SweepProfiler::WorkerStats::busy_s() const {
  double total = 0.0;
  for (const double s : phase_s) total += s;
  return total;
}

std::uint64_t SweepProfiler::WorkerStats::tasks() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : phase_tasks) total += n;
  return total;
}

double SweepProfiler::WorkerStats::max_task_s() const {
  double worst = 0.0;
  for (const double s : phase_max_s) worst = std::max(worst, s);
  return worst;
}

double SweepProfiler::Summary::max_task_s() const {
  double worst = 0.0;
  for (const auto& w : per_worker) worst = std::max(worst, w.max_task_s());
  return worst;
}

double SweepProfiler::Summary::busy_s() const {
  double total = 0.0;
  for (const auto& w : per_worker) total += w.busy_s();
  return total;
}

std::uint64_t SweepProfiler::Summary::tasks() const {
  std::uint64_t total = 0;
  for (const auto& w : per_worker) total += w.tasks();
  return total;
}

double SweepProfiler::Summary::idle_s() const {
  const double span = wall_s * static_cast<double>(workers);
  const double busy = busy_s();
  return span > busy ? span - busy : 0.0;
}

double SweepProfiler::Summary::utilization() const {
  const double span = wall_s * static_cast<double>(workers);
  if (span <= 0.0) return 0.0;
  const double u = busy_s() / span;
  return u < 1.0 ? u : 1.0;
}

std::string SweepProfiler::Summary::to_json(const std::string& name) const {
  obs::json::Array workers_json;
  for (std::size_t w = 0; w < per_worker.size(); ++w) {
    const WorkerStats& stats = per_worker[w];
    obs::json::Object phases;
    for (std::size_t p = 0; p < kSweepPhaseCount; ++p) {
      phases.raw(to_string(static_cast<SweepPhase>(p)),
                 obs::json::Object{}
                     .number("seconds", stats.phase_s[p], kDecimals)
                     .integer("tasks", stats.phase_tasks[p])
                     .number("max_s", stats.phase_max_s[p], kDecimals)
                     .close());
    }
    workers_json.raw(obs::json::Object{}
                         .integer("worker", w)
                         .number("busy_s", stats.busy_s(), kDecimals)
                         .integer("tasks", stats.tasks())
                         .number("max_task_s", stats.max_task_s(), kDecimals)
                         .raw("phases", phases.close())
                         .close());
  }
  return obs::json::Object{}
      .string("name", name)
      .integer("workers", workers)
      .number("wall_s", wall_s, kDecimals)
      .number("busy_s", busy_s(), kDecimals)
      .number("idle_s", idle_s(), kDecimals)
      .number("utilization", utilization(), kDecimals)
      .integer("tasks", tasks())
      .number("max_task_s", max_task_s(), kDecimals)
      .raw("per_worker", workers_json.close())
      .close();
}

SweepProfiler::Summary SweepProfiler::summary() const {
  Summary s;
  s.workers = cells_.size();
  s.wall_s = elapsed_s();
  s.per_worker.reserve(cells_.size());
  for (const Cell& cell : cells_) {
    WorkerStats stats;
    stats.phase_s = cell.seconds;
    stats.phase_tasks = cell.tasks;
    stats.phase_max_s = cell.max_s;
    s.per_worker.push_back(stats);
  }
  return s;
}

}  // namespace vstream::runner
