#include "runner/topology_sweep.hpp"

namespace vstream::runner {

TopologyAccumulator run_topologies_streamed(
    const ParallelSweep& pool, std::size_t first, std::size_t count,
    const std::function<streaming::TopologyConfig(std::size_t)>& make) {
  return fold_worlds<TopologyAccumulator>(pool, first, count, make, streaming::run_topology,
                                          streaming::fold_topology_outcome);
}

}  // namespace vstream::runner
