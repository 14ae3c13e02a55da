// dataset_census — inspect the synthetic populations behind the
// experiments: the six datasets of Section 4.1, Zipf popularity (Cha et
// al.) and the viewing/abandonment model (Finamore, Gill, Huang) that
// drives the interruption studies.
//
// Usage: dataset_census [videos_per_dataset]
//
// A count that does not parse whole (negative, non-numeric) exits 2 with
// the usage text; 0 or no count means the paper's dataset sizes.
//
// The per-dataset session sampler at the end simulates one session per
// sampled video; those fan out across cores (worker count from
// VSTREAM_JOBS, default hardware concurrency, 1 = serial).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/strategy.hpp"
#include "runner/cli.hpp"
#include "runner/parallel_sweep.hpp"
#include "stats/descriptive.hpp"
#include "streaming/session_builder.hpp"
#include "video/datasets.hpp"
#include "video/viewing.hpp"

int main(int argc, char** argv) {
  using namespace vstream;
  std::size_t count = 0;  // 0 = paper size
  if (argc > 1 && !runner::parse_whole(argv[1], count)) {
    std::fprintf(stderr,
                 "dataset_census: bad value '%s' for videos_per_dataset\n"
                 "usage: dataset_census [videos_per_dataset]\n",
                 argv[1]);
    return 2;
  }

  std::printf("== datasets (Section 4.1) ==\n\n");
  std::printf("%-9s %7s %12s %12s %12s %12s\n", "dataset", "videos", "rate lo", "rate hi",
              "med dur", "container");
  sim::Rng rng{2011};
  for (const auto id :
       {video::DatasetId::kYouFlash, video::DatasetId::kYouHd, video::DatasetId::kYouHtml,
        video::DatasetId::kYouMob, video::DatasetId::kNetPc, video::DatasetId::kNetMob}) {
    const auto ds = video::make_dataset(id, rng, count);
    std::vector<double> rates;
    std::vector<double> durations;
    for (const auto& v : ds.videos) {
      rates.push_back(v.encoding_mbps());
      durations.push_back(v.duration_s);
    }
    std::printf("%-9s %7zu %10.2f M %10.2f M %10.0f s %12s\n",
                video::to_string(id).c_str(), ds.size(), stats::min(rates), stats::max(rates),
                stats::median(durations), video::to_string(ds.videos[0].container).c_str());
  }
  std::printf("\npaper: YouFlash 5000 @ 0.2-1.5 Mbps, YouHD 2000 @ 0.2-4.8 Mbps,\n"
              "YouHtml 3000 @ 0.2-2.5 Mbps, NetPC 200, NetMob 50 (long titles).\n");

  std::printf("\n== popularity (Zipf, Cha et al.) ==\n\n");
  const video::ZipfSampler zipf{10000, 1.0};
  double head10 = 0.0;
  double head100 = 0.0;
  for (std::size_t r = 0; r < 100; ++r) {
    if (r < 10) head10 += zipf.probability(r);
    head100 += zipf.probability(r);
  }
  std::printf("catalogue of 10000 titles, exponent 1.0:\n");
  std::printf("  top 10 titles draw %.1f%% of views; top 100 draw %.1f%%\n", head10 * 100.0,
              head100 * 100.0);

  std::printf("\n== viewing behaviour (Finamore / Gill / Huang) ==\n\n");
  const video::ViewingModel viewing;
  sim::Rng vr{7};
  std::printf("%12s %18s %14s %14s\n", "duration", "P(early quit)", "mean beta", "P(beta<0.2)");
  for (const double duration : {60.0, 210.0, 600.0, 1800.0}) {
    double sum = 0.0;
    int early = 0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) {
      const double beta = viewing.draw_watch_fraction(vr, duration);
      sum += beta;
      if (beta < 0.2) ++early;
    }
    std::printf("%10.0f s %17.1f%% %14.2f %13.1f%%\n", duration,
                viewing.early_quit_probability(duration) * 100.0, sum / kDraws,
                100.0 * early / kDraws);
  }
  std::printf("\npaper's citations: 60%% of videos watched < 20%% of their duration\n"
              "(Finamore); longer videos watched for smaller fractions (Huang).\n");

  std::printf("\n== simulated session sample (packet level, parallel) ==\n\n");
  // One short session per sampled video, every dataset in one batch. Each
  // session is an independent world keyed by a deterministic seed, so the
  // table is identical for any VSTREAM_JOBS value.
  constexpr std::size_t kPerDataset = 3;
  const std::vector<video::DatasetId> ids{video::DatasetId::kYouFlash, video::DatasetId::kYouHd,
                                          video::DatasetId::kYouHtml};
  std::vector<streaming::SessionBuilder> builders;
  sim::Rng sample_rng{42};
  for (const auto id : ids) {
    const auto ds = video::make_dataset(id, sample_rng, 50);
    for (std::size_t i = 0; i < kPerDataset; ++i) {
      const auto& meta = ds.videos[i * 7];  // spread the picks across the catalogue
      // The census only reads aggregate outputs, so skip packet storage and
      // let the streaming pipeline build the report during capture.
      builders.push_back(streaming::SessionBuilder{}
                             .vantage(net::Vantage::kResearch)
                             .video(meta)
                             .container(meta.container)
                             .capture_duration_s(20.0)
                             .seed(100 * static_cast<std::uint64_t>(id) + i)
                             .store_trace(false)
                             .streaming_report(true));
    }
  }
  const runner::ParallelSweep pool;
  const auto sessions = pool.map<streaming::SessionResult>(
      builders.size(), [&builders](std::size_t i) { return builders[i].run(); });
  std::printf("%zu sessions across %zu workers\n", sessions.size(), pool.jobs());
  std::printf("%-9s %10s %12s %12s  %s\n", "dataset", "down MB", "est. Mbps", "connections",
              "strategy (first)");
  for (std::size_t d = 0; d < ids.size(); ++d) {
    double mb = 0.0;
    double mbps = 0.0;
    std::size_t connections = 0;
    for (std::size_t i = 0; i < kPerDataset; ++i) {
      const auto& s = sessions[d * kPerDataset + i];
      mb += s.bytes_downloaded / 1048576.0;
      mbps += s.encoding_bps_estimated / 1e6;
      connections += s.connections;
    }
    const auto& first = sessions[d * kPerDataset];
    std::printf("%-9s %10.2f %12.2f %12.1f  %s\n", video::to_string(ids[d]).c_str(),
                mb / kPerDataset, mbps / kPerDataset,
                static_cast<double>(connections) / kPerDataset,
                first.report ? analysis::to_string(first.report->strategy).c_str() : "-");
  }
  return 0;
}
