#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <tuple>

namespace vstream::e2e {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kSim: return "sim";
    case Layer::kNet: return "net";
    case Layer::kStreaming: return "streaming";
    case Layer::kAnalysis: return "analysis";
    case Layer::kRunner: return "runner";
    case Layer::kCheck: return "check";
    case Layer::kModel: return "model";
  }
  return "bench";
}

SpanLog::SpanLog(std::size_t workers) : lanes_(std::max<std::size_t>(workers, 1)) {}

std::uint64_t SpanLog::next_id(std::size_t worker) {
  // Worker in the high bits keeps ids unique without sharing a counter.
  return (static_cast<std::uint64_t>(worker + 1) << 40U) | lanes_[worker].next_id++;
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, Layer layer, std::uint64_t trace_id,
                      std::size_t worker)
    : log_{log}, worker_{worker} {
  if (!log_.enabled_) return;
  Lane& lane = log_.lanes_[worker_];
  std::uint64_t parent = 0;
  if (!lane.open.empty()) {
    parent = lane.open.back();
  } else if (worker_ != 0) {
    parent = log_.fanout_parent_;
  }
  id_ = log_.next_id(worker_);
  index_ = lane.spans.size();
  lane.spans.push_back(SpanRecord{name, layer, now_s(), 0.0, id_, parent, trace_id, worker_});
  lane.open.push_back(id_);
}

SpanLog::Scope::~Scope() {
  if (index_ == kNone) return;
  Lane& lane = log_.lanes_[worker_];
  lane.spans[index_].end_s = now_s();
  lane.open.pop_back();
}

void SpanLog::add(const char* name, Layer layer, double start_s, double end_s,
                  std::uint64_t trace_id, std::size_t worker, std::uint64_t parent_id) {
  if (!enabled_) return;
  const std::uint64_t id = next_id(worker);
  lanes_[worker].spans.push_back(
      SpanRecord{name, layer, start_s, end_s, id, parent_id, trace_id, worker});
}

std::vector<SpanRecord> SpanLog::spans() const {
  std::vector<SpanRecord> out;
  for (const Lane& lane : lanes_) out.insert(out.end(), lane.spans.begin(), lane.spans.end());
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return std::tie(a.start_s, a.span_id) < std::tie(b.start_s, b.span_id);
  });
  return out;
}

std::string SpanLog::chrome_json(const std::string& other_data) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const SpanRecord& s : spans()) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"layer\":\"%s\",\"span_id\":%" PRIu64
                  ",\"parent_id\":%" PRIu64 ",\"trace_id\":%" PRIu64 "}}",
                  first ? "" : ",", s.name, to_string(s.layer), s.worker, s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, to_string(s.layer), s.span_id, s.parent_id,
                  s.trace_id);
    out += buf;
    first = false;
  }
  out += "\n],\"otherData\":";
  out += other_data.empty() ? "{}" : other_data;
  out += "}\n";
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30U)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27U)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31U);
}

namespace {

std::uint64_t status_kb(const char* key) {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  const std::string prefix = std::string{key} + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
  }
  return 0;
}

}  // namespace

std::uint64_t peak_rss_kb() { return status_kb("VmHWM"); }
std::uint64_t current_rss_kb() { return status_kb("VmRSS"); }

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string to_json(const Metrics& metrics) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ",";
    out += json_string(metrics[i].first) + ":" + buf;
  }
  return out + "}";
}

}  // namespace vstream::e2e
