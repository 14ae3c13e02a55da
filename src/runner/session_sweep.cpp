#include "runner/session_sweep.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "streaming/scenarios.hpp"

namespace vstream::runner {

namespace {

namespace json = obs::json;

/// %.17g is the shortest printf precision guaranteed to reproduce the exact
/// binary64, so the FP sums survive a shard round trip.
constexpr json::Format kDigits{17};

/// Strict on the fields a payload owns: a missing field, a signed or
/// overflowing count, a non-finite sum or a digest that is not a hex
/// string names the payload and the field.
class PayloadReader {
 public:
  PayloadReader(std::string text, std::string path)
      : text_{std::move(text)}, path_{std::move(path)} {}

  std::uint64_t u64(const char* key) const {
    std::uint64_t v = 0;
    check(json::read(text_, key, v), key, "is not an integer");
    return v;
  }
  double f64(const char* key) const {
    double v = 0.0;
    check(json::read(text_, key, v), key, "is not a number");
    return v;
  }
  std::uint64_t digest(const char* key) const {
    std::uint64_t v = 0;
    check(json::read_digest(text_, key, v), key, "is not hex");
    return v;
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"shard payload " + path_ + ": " + what};
  }

 private:
  void check(json::Field field, const char* key, const char* invalid) const {
    if (field == json::Field::kMissing) {
      throw std::runtime_error{"shard payload " + path_ + " is missing field \"" + key + "\""};
    }
    if (field == json::Field::kInvalid) fail("field \"" + std::string{key} + "\" " + invalid);
  }

  std::string text_;
  std::string path_;
};

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

obs::json::Object SweepAccumulator::json_object(const std::string& name, std::size_t shard,
                                                std::size_t shards, std::size_t first,
                                                std::size_t count) const {
  obs::json::Object out;
  out.string("name", name)
      .integer("shard", shard)
      .integer("shards", shards)
      .integer("first", first)
      .integer("count", count)
      .integer("sessions", sessions)
      .integer("bytes_downloaded", bytes_downloaded)
      .integer("sim_events", sim_events)
      .integer("connections", connections)
      .integer("rebuffer_count", rebuffer_count)
      .integer("fetch_retries", fetch_retries)
      .integer("interrupted_sessions", interrupted_sessions)
      .integer("max_events_pending", max_events_pending)
      .number("download_rate_bps_sum", download_rate_bps_sum, kDigits)
      .number("encoding_bps_estimated_sum", encoding_bps_estimated_sum, kDigits)
      .number("stall_time_s_sum", stall_time_s_sum, kDigits)
      .number("mean_download_rate_bps", mean_download_rate_bps(), kDigits)
      .digest("digest", digest.combined)
      .integer("digest_sessions", digest.sessions);
  return out;
}

std::string SweepAccumulator::to_json(const std::string& name, std::size_t shard,
                                      std::size_t shards, std::size_t first,
                                      std::size_t count) const {
  return json_object(name, shard, shards, first, count).close();
}

SweepAccumulator SweepAccumulator::from_json_file(const std::string& path, std::size_t& shard,
                                                  std::size_t& shards, std::size_t& first,
                                                  std::size_t& count) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open shard payload " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const PayloadReader payload{buffer.str(), path};

  shard = payload.u64("shard");
  shards = payload.u64("shards");
  first = payload.u64("first");
  count = payload.u64("count");

  SweepAccumulator acc;
  acc.sessions = payload.u64("sessions");
  acc.bytes_downloaded = payload.u64("bytes_downloaded");
  acc.sim_events = payload.u64("sim_events");
  acc.connections = payload.u64("connections");
  acc.rebuffer_count = payload.u64("rebuffer_count");
  acc.fetch_retries = payload.u64("fetch_retries");
  acc.interrupted_sessions = payload.u64("interrupted_sessions");
  acc.max_events_pending = payload.u64("max_events_pending");
  acc.download_rate_bps_sum = payload.f64("download_rate_bps_sum");
  acc.encoding_bps_estimated_sum = payload.f64("encoding_bps_estimated_sum");
  acc.stall_time_s_sum = payload.f64("stall_time_s_sum");
  acc.digest.combined = payload.digest("digest");
  acc.digest.sessions = payload.u64("digest_sessions");
  if (acc.digest.sessions != acc.sessions) payload.fail("digest_sessions != sessions");
  return acc;
}

SweepAccumulator run_sessions_streamed(
    const ParallelSweep& pool, std::size_t first, std::size_t count,
    const std::function<streaming::SessionConfig(std::size_t)>& make) {
  return fold_worlds<SweepAccumulator>(pool, first, count, make, streaming::run_session,
                                       streaming::fold_outcome);
}

}  // namespace vstream::runner
