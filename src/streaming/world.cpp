#include "streaming/world.hpp"

namespace vstream::streaming {

World::World(std::uint64_t seed, sim::ArenaResource* arena, check::StateDigest* digest,
             obs::TraceSink* sink)
    : sim_{arena}, rng_{seed}, monitor_{sim_, sim::Duration::seconds(1.0)}, sink_{sink} {
  sim_.set_obs(&obs_);
  if (digest != nullptr) sim_.set_digest(digest);
  if (sink_ != nullptr) obs_.trace().attach(sink_);
}

World::~World() {
  if (sink_ != nullptr) obs_.trace().detach(sink_);
}

WorldStats World::finish() {
  monitor_.stop();
  if (obs_.trace().active()) {
    const std::size_t truncated = obs_.spans().close_all("capture_end");
    obs_.metrics().gauge("obs.spans_truncated").set(static_cast<double>(truncated));
  }
  return WorldStats{sim_.events_processed(), sim_.max_events_pending()};
}

}  // namespace vstream::streaming
