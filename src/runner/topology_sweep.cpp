#include "runner/topology_sweep.hpp"

#include <algorithm>

namespace vstream::runner {

void TopologyAccumulator::add(std::size_t index, const streaming::TopologyConfig& config,
                              const streaming::TopologyResult& result,
                              std::uint64_t digest_value, std::uint64_t words_mixed) {
  ++worlds;
  sessions_started += result.sessions_started;
  sessions_finished += result.sessions_finished;
  sessions_interrupted += result.sessions_interrupted;
  sessions_active_at_end += result.sessions_active_at_end;
  connections += result.connections;
  bytes_downloaded += result.bytes_downloaded;
  wasted_bytes += result.wasted_bytes;
  video_payload_bytes += result.video_payload_bytes;
  cross_traffic_bytes += result.cross_traffic_bytes;
  bottleneck_dropped_queue += result.bottleneck_dropped_queue;
  bottleneck_dropped_loss += result.bottleneck_dropped_loss;
  sim_events += result.sim_events;
  max_events_pending = std::max(max_events_pending, result.sim_max_events_pending);
  aggregate.merge(result.aggregate);
  concurrency.merge(result.concurrency);
  sum_encoding_bps += result.sum_encoding_bps;
  sum_duration_s += result.sum_duration_s;
  sum_goodput_bps += result.sum_goodput_bps;
  goodput_samples += result.goodput_samples;
  arrival_window_s_sum += config.arrival_window_s();
  digest.add(index, digest_value, words_mixed);
}

void TopologyAccumulator::merge(const TopologyAccumulator& other) {
  worlds += other.worlds;
  sessions_started += other.sessions_started;
  sessions_finished += other.sessions_finished;
  sessions_interrupted += other.sessions_interrupted;
  sessions_active_at_end += other.sessions_active_at_end;
  connections += other.connections;
  bytes_downloaded += other.bytes_downloaded;
  wasted_bytes += other.wasted_bytes;
  video_payload_bytes += other.video_payload_bytes;
  cross_traffic_bytes += other.cross_traffic_bytes;
  bottleneck_dropped_queue += other.bottleneck_dropped_queue;
  bottleneck_dropped_loss += other.bottleneck_dropped_loss;
  sim_events += other.sim_events;
  max_events_pending = std::max(max_events_pending, other.max_events_pending);
  aggregate.merge(other.aggregate);
  concurrency.merge(other.concurrency);
  sum_encoding_bps += other.sum_encoding_bps;
  sum_duration_s += other.sum_duration_s;
  sum_goodput_bps += other.sum_goodput_bps;
  goodput_samples += other.goodput_samples;
  arrival_window_s_sum += other.arrival_window_s_sum;
  digest.merge(other.digest);
}

TopologyAccumulator run_topologies_streamed(
    const ParallelSweep& pool, std::size_t first, std::size_t count,
    const std::function<streaming::TopologyConfig(std::size_t)>& make) {
  return fold_worlds<TopologyAccumulator>(pool, first, count, make, streaming::run_topology,
                                          streaming::fold_topology_outcome);
}

}  // namespace vstream::runner
