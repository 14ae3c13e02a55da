// Focused tests for the FetchManager: queueing discipline on the
// persistent connection, interleaved fresh fetches, stop() mid-transfer,
// and byte accounting across modes.
#include <gtest/gtest.h>

#include "net/path.hpp"
#include "net/profile.hpp"
#include "streaming/fetch.hpp"

namespace vstream::streaming {
namespace {

using sim::SimTime;

struct Wire {
  Wire() : rng{9}, path{sim, profile(), rng}, fabric{sim, path} {}
  static net::NetworkProfile profile() {
    auto p = net::profile_for(net::Vantage::kResearch);
    p.loss_rate = 0.0;
    return p;
  }
  sim::Simulator sim;
  sim::Rng rng;
  net::Path path;
  tcp::Fabric fabric;
};

video::VideoMeta big_video() {
  video::VideoMeta v;
  v.id = "fetch";
  v.duration_s = 3600.0;
  v.encoding_bps = 3e6;
  return v;
}

TEST(FetchTest, PersistentFetchesCompleteInFifoOrder) {
  Wire w;
  FetchManager fm{w.sim, w.fabric, big_video(), {}, {}};
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    fm.fetch_range_persistent(
        http::ByteRange{static_cast<std::uint64_t>(i) * 500'000,
                        static_cast<std::uint64_t>(i) * 500'000 + 499'999},
        {}, [&order, i] { order.push_back(i); });
  }
  w.sim.run_until(SimTime::from_seconds(30.0));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(fm.connections_opened(), 1U);
  EXPECT_EQ(fm.body_bytes_fetched(), 4U * 500'000);
}

TEST(FetchTest, PersistentQueueDrainsWhenFedFromCompletion) {
  // The Netflix pattern: each completion schedules the next fetch.
  Wire w;
  FetchManager fm{w.sim, w.fabric, big_video(), {}, {}};
  int done = 0;
  std::function<void()> next = [&] {
    if (++done >= 5) return;
    fm.fetch_range_persistent(http::ByteRange{0, 99'999}, {}, next);
  };
  fm.fetch_range_persistent(http::ByteRange{0, 99'999}, {}, next);
  w.sim.run_until(SimTime::from_seconds(30.0));
  EXPECT_EQ(done, 5);
  EXPECT_EQ(fm.connections_opened(), 1U);
}

TEST(FetchTest, FreshAndPersistentModesCoexist) {
  Wire w;
  FetchManager fm{w.sim, w.fabric, big_video(), {}, {}};
  int fresh_done = 0;
  int persistent_done = 0;
  fm.fetch_range(http::ByteRange{0, 199'999}, {}, [&] { ++fresh_done; });
  fm.fetch_range_persistent(http::ByteRange{0, 199'999}, {}, [&] { ++persistent_done; });
  fm.fetch_range(http::ByteRange{200'000, 399'999}, {}, [&] { ++fresh_done; });
  w.sim.run_until(SimTime::from_seconds(30.0));
  EXPECT_EQ(fresh_done, 2);
  EXPECT_EQ(persistent_done, 1);
  EXPECT_EQ(fm.connections_opened(), 3U);  // 2 fresh + 1 persistent
}

TEST(FetchTest, SinkSeesExactlyBodyBytes) {
  Wire w;
  FetchManager fm{w.sim, w.fabric, big_video(), {}, {}};
  std::uint64_t sunk = 0;
  bool done = false;
  fm.fetch_range(http::ByteRange{0, 777'776}, [&](std::uint64_t n) { sunk += n; },
                 [&] { done = true; });
  w.sim.run_until(SimTime::from_seconds(30.0));
  EXPECT_TRUE(done);
  EXPECT_EQ(sunk, 777'777U);  // HTTP head bytes excluded
}

TEST(FetchTest, StopMidTransferHaltsProgress) {
  auto profile = Wire::profile();
  profile.down_bps = 2e6;  // slow, so we can stop mid-flight
  sim::Simulator sim;
  sim::Rng rng{4};
  net::Path path{sim, profile, rng};
  tcp::Fabric fabric{sim, path};
  FetchManager fm{sim, fabric, big_video(), {}, {}};
  bool done = false;
  fm.fetch_range(http::ByteRange{0, 9'999'999}, {}, [&] { done = true; });
  sim.run_until(SimTime::from_seconds(2.0));
  EXPECT_FALSE(done);
  fm.stop();
  const auto bytes_at_stop = fm.body_bytes_fetched();
  sim.run_until(SimTime::from_seconds(60.0));
  EXPECT_FALSE(done);
  EXPECT_EQ(fm.body_bytes_fetched(), bytes_at_stop);
}

TEST(FetchTest, IdleOnlyOnceNoWatchdogOrRetryBackoffIsPending) {
  // A blackout silences the fetch; the watchdog times it out and schedules
  // a retry backoff. A stopped manager's backoff still fires (as a no-op),
  // so the manager is not idle until it has.
  Wire w;
  w.path.set_impairments(net::ImpairmentSchedule{}.blackout(SimTime::from_seconds(0.2),
                                                            sim::Duration::seconds(30.0)));
  RetryPolicy retry;
  retry.request_timeout = sim::Duration::seconds(1.0);
  retry.backoff_initial = sim::Duration::seconds(2.0);
  retry.backoff_max = sim::Duration::seconds(2.0);
  FetchManager fm{w.sim, w.fabric, big_video(), {}, {}, retry};
  EXPECT_TRUE(fm.idle());
  fm.fetch_range(http::ByteRange{0, 9'999'999}, {}, {});
  EXPECT_FALSE(fm.idle());  // watchdog armed
  while (fm.retries() == 0 && w.sim.step()) {
  }
  ASSERT_EQ(fm.retries(), 1U);
  fm.stop();  // cancels watchdogs, not the backoff
  EXPECT_FALSE(fm.idle());
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(2.5));
  EXPECT_TRUE(fm.idle());
  EXPECT_EQ(fm.connections_opened(), 1U);  // the stopped backoff reissued nothing
}

TEST(FetchTest, ConcurrentFreshFetchesShareTheBottleneck) {
  auto profile = Wire::profile();
  profile.down_bps = 10e6;
  sim::Simulator sim;
  sim::Rng rng{5};
  net::Path path{sim, profile, rng};
  tcp::Fabric fabric{sim, path};
  FetchManager fm{sim, fabric, big_video(), {}, {}};
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    fm.fetch_range(http::ByteRange{static_cast<std::uint64_t>(i) * 1'000'000,
                                   static_cast<std::uint64_t>(i) * 1'000'000 + 999'999},
                   {}, [&] { ++done; });
  }
  sim.run_until(SimTime::from_seconds(60.0));
  EXPECT_EQ(done, 4);
  // 4 MB at 10 Mbps is ~3.4 s; with sharing overhead all done well within
  // the window, and total bytes are exact.
  EXPECT_EQ(fm.body_bytes_fetched(), 4'000'000U);
}

}  // namespace
}  // namespace vstream::streaming
