#include "runner/session_sweep.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "streaming/scenarios.hpp"

namespace vstream::runner {

namespace {

/// Round-tripping double formatter for the shard-out payload: %.17g is the
/// shortest printf precision guaranteed to reproduce the exact binary64.
void append_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void append_u64(std::string& out, const char* key, std::uint64_t value) {
  out += ",\"";
  out += key;
  out += "\":" + std::to_string(value);
}

void append_f64(std::string& out, const char* key, double value) {
  out += ",\"";
  out += key;
  out += "\":";
  append_double(out, value);
}

/// Locate `"key":` in `text` and return the offset just past the colon.
std::size_t value_offset(const std::string& text, const std::string& key, const std::string& path) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) {
    throw std::runtime_error{"shard payload " + path + " is missing field \"" + key + "\""};
  }
  return at + needle.size();
}

/// Parse the number at `text[at]` with std::from_chars, which takes no sign
/// for an unsigned type (sscanf's %llu would wrap "-1" to 2^64-1) and no
/// leading space. A double must also be finite.
template <typename T, typename... Base>
T parse_at(const std::string& text, std::size_t at, const std::string& key,
           const std::string& path, const char* what, Base... base) {
  T value{};
  if (std::from_chars(text.data() + at, text.data() + text.size(), value, base...).ec !=
          std::errc{} ||
      !std::isfinite(static_cast<double>(value))) {
    throw std::runtime_error{"shard payload " + path + ": field \"" + key + "\" " + what};
  }
  return value;
}

std::uint64_t parse_u64(const std::string& text, const std::string& key, const std::string& path) {
  return parse_at<std::uint64_t>(text, value_offset(text, key, path), key, path,
                                 "is not an integer");
}

double parse_f64(const std::string& text, const std::string& key, const std::string& path) {
  return parse_at<double>(text, value_offset(text, key, path), key, path, "is not a number");
}

/// The digest travels as a hex string — a JSON number would silently lose
/// bits above 2^53 in any double-based reader touching the payload.
std::uint64_t parse_hex(const std::string& text, const std::string& key, const std::string& path) {
  const std::size_t at = value_offset(text, key, path);
  if (text[at] != '"') {
    throw std::runtime_error{"shard payload " + path + ": field \"" + key + "\" is not a string"};
  }
  return parse_at<std::uint64_t>(text, at + 1, key, path, "is not hex", 16);
}

}  // namespace

void SweepDigest::add(std::size_t index, const streaming::RunFingerprint& world) {
  check::StateDigest word;
  word.mix(static_cast<std::uint64_t>(index));
  word.mix(world.digest);
  word.mix(world.words_mixed);
  combined ^= word.value();
  ++sessions;
}

void SweepAccumulator::add(std::size_t index, const streaming::SessionConfig& config,
                           const streaming::SessionResult& result,
                           const streaming::RunFingerprint& world) {
  ++sessions;
  bytes_downloaded += result.bytes_downloaded;
  sim_events += result.sim_events;
  connections += result.connections;
  rebuffer_count += result.resilience.rebuffer_count;
  fetch_retries += result.resilience.fetch_retries;
  if (result.interrupted_at_s > 0.0) ++interrupted_sessions;
  max_events_pending = std::max(max_events_pending, result.sim_max_events_pending);
  if (config.capture_duration_s > 0.0) {
    download_rate_bps_sum +=
        8.0 * static_cast<double>(result.bytes_downloaded) / config.capture_duration_s;
  }
  encoding_bps_estimated_sum += result.encoding_bps_estimated;
  stall_time_s_sum += result.player.stall_time_s;
  digest.add(index, world);
}

void SweepAccumulator::merge(const SweepAccumulator& other) {
  sessions += other.sessions;
  bytes_downloaded += other.bytes_downloaded;
  sim_events += other.sim_events;
  connections += other.connections;
  rebuffer_count += other.rebuffer_count;
  fetch_retries += other.fetch_retries;
  interrupted_sessions += other.interrupted_sessions;
  max_events_pending = std::max(max_events_pending, other.max_events_pending);
  download_rate_bps_sum += other.download_rate_bps_sum;
  encoding_bps_estimated_sum += other.encoding_bps_estimated_sum;
  stall_time_s_sum += other.stall_time_s_sum;
  digest.merge(other.digest);
}

std::string SweepAccumulator::to_json(const std::string& name, std::size_t shard,
                                      std::size_t shards, std::size_t first,
                                      std::size_t count) const {
  std::string out;
  out += "{\"name\":\"" + name + "\"";
  append_u64(out, "shard", shard);
  append_u64(out, "shards", shards);
  append_u64(out, "first", first);
  append_u64(out, "count", count);
  append_u64(out, "sessions", sessions);
  append_u64(out, "bytes_downloaded", bytes_downloaded);
  append_u64(out, "sim_events", sim_events);
  append_u64(out, "connections", connections);
  append_u64(out, "rebuffer_count", rebuffer_count);
  append_u64(out, "fetch_retries", fetch_retries);
  append_u64(out, "interrupted_sessions", interrupted_sessions);
  append_u64(out, "max_events_pending", max_events_pending);
  append_f64(out, "download_rate_bps_sum", download_rate_bps_sum);
  append_f64(out, "encoding_bps_estimated_sum", encoding_bps_estimated_sum);
  append_f64(out, "stall_time_s_sum", stall_time_s_sum);
  append_f64(out, "mean_download_rate_bps", mean_download_rate_bps());
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest.combined));
  out += ",\"digest\":\"";
  out += hex;
  out += "\"";
  append_u64(out, "digest_sessions", digest.sessions);
  out += "}";
  return out;
}

SweepAccumulator SweepAccumulator::from_json_file(const std::string& path, std::size_t& shard,
                                                  std::size_t& shards, std::size_t& first,
                                                  std::size_t& count) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open shard payload " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  shard = parse_u64(text, "shard", path);
  shards = parse_u64(text, "shards", path);
  first = parse_u64(text, "first", path);
  count = parse_u64(text, "count", path);

  SweepAccumulator acc;
  acc.sessions = parse_u64(text, "sessions", path);
  acc.bytes_downloaded = parse_u64(text, "bytes_downloaded", path);
  acc.sim_events = parse_u64(text, "sim_events", path);
  acc.connections = parse_u64(text, "connections", path);
  acc.rebuffer_count = parse_u64(text, "rebuffer_count", path);
  acc.fetch_retries = parse_u64(text, "fetch_retries", path);
  acc.interrupted_sessions = parse_u64(text, "interrupted_sessions", path);
  acc.max_events_pending = parse_u64(text, "max_events_pending", path);
  acc.download_rate_bps_sum = parse_f64(text, "download_rate_bps_sum", path);
  acc.encoding_bps_estimated_sum = parse_f64(text, "encoding_bps_estimated_sum", path);
  acc.stall_time_s_sum = parse_f64(text, "stall_time_s_sum", path);
  acc.digest.combined = parse_hex(text, "digest", path);
  acc.digest.sessions = parse_u64(text, "digest_sessions", path);
  if (acc.digest.sessions != acc.sessions) {
    throw std::runtime_error{"shard payload " + path + ": digest_sessions != sessions"};
  }
  return acc;
}

SweepAccumulator run_sessions_streamed(
    const ParallelSweep& pool, std::size_t first, std::size_t count,
    const std::function<streaming::SessionConfig(std::size_t)>& make) {
  return fold_worlds<SweepAccumulator>(pool, first, count, make, streaming::run_session,
                                       streaming::fold_outcome);
}

}  // namespace vstream::runner
