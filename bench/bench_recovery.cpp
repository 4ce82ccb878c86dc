// Durability benchmark: what fault tolerance costs on the ingest path and
// what it buys at recovery time.
//
//  - Ingest overhead: the same dengue-style sliding-window feed through the
//    streaming engine with durability off, WAL-only (fflush), and
//    fsync-per-batch (WalSync::kBatch), plus periodic durable checkpoints.
//  - Recovery: crash after the full feed (abandon the estimator), then
//    recover a fresh one and measure the wall time and WAL replay rate.
//    The checkpoint-cadence sweep shows the knob doing its job: a denser
//    cadence bounds the WAL tail, so recovery time drops with it.
//
// --json <path> writes the run as a JSON artifact (nothing is written
// without it); --smoke shrinks the feed for CI.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/durability.hpp"
#include "core/incremental.hpp"
#include "data/datasets.hpp"
#include "util/timer.hpp"

using namespace stkde;

namespace {

struct FeedConfig {
  int days = 40;
  double window = 14.0;
  std::size_t per_day = 2500;
  double extent = 5000.0;  // meters; 50 m voxels
};

std::vector<PointSet> daily_batches(const PointSet& feed, int days) {
  std::vector<PointSet> out(static_cast<std::size_t>(days));
  std::size_t cursor = 0;
  for (int day = 0; day < days; ++day) {
    PointSet& b = out[static_cast<std::size_t>(day)];
    while (cursor < feed.size() && feed[cursor].t < day + 1.0)
      b.push_back(feed[cursor++]);
  }
  return out;
}

double run_ingest(core::IncrementalEstimator& eng,
                  const std::vector<PointSet>& batches, double window) {
  util::Timer t;
  for (std::size_t day = 0; day < batches.size(); ++day)
    eng.advance_window(batches[day], static_cast<double>(day) + 1.0 - window);
  return t.seconds();
}

std::string scratch_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("stkde_bench_" + name))
          .string();
  std::filesystem::create_directories(dir);
  core::DurableLog::reset_dir(dir);
  return dir;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const bench::BenchEnv env = bench::bench_env(cli);
  bench::print_banner("Durability — WAL/checkpoint overhead and recovery",
                      env);

  FeedConfig fc;
  if (cli.smoke) {
    fc.days = 16;
    fc.per_day = 1000;
    fc.extent = 3000.0;
  }
  const DomainSpec city{0, 0, 0, fc.extent, fc.extent,
                        static_cast<double>(fc.days), 50.0, 1.0};
  Params params;
  params.hs = 400.0;
  params.ht = 5.0;

  PointSet feed = data::generate_dataset(
      data::Dataset::kDengue, city,
      fc.per_day * static_cast<std::size_t>(fc.days), 99);
  std::sort(feed.begin(), feed.end(),
            [](const Point& a, const Point& b) { return a.t < b.t; });
  const std::vector<PointSet> batches = daily_batches(feed, fc.days);
  const std::uint64_t n_events = feed.size();

  const GridDims dims = city.dims();
  std::cout << "dengue feed: " << n_events << " events over " << fc.days
            << " days, " << fc.window << "-day window, grid " << dims.gx
            << "x" << dims.gy << "x" << dims.gt << "\n\n";

  // Checkpoint cadence for the overhead rows: a handful per run, matching
  // the "bound the replay tail" production posture.
  const std::uint64_t ckpt_events = std::max<std::uint64_t>(5000, n_events / 2);

  struct IngestRow {
    const char* name;
    io::WalSync sync;
    bool durable;
  };
  const IngestRow rows[] = {
      {"baseline (durability off)", io::WalSync::kNone, false},
      {"wal (fflush per batch)", io::WalSync::kNone, true},
      {"wal+fsync (kBatch)", io::WalSync::kBatch, true},
  };

  util::Table ingest({"config", "seconds", "events_per_sec", "overhead_pct",
                      "wal_records", "durable_checkpoints", "state_bytes"});
  double t_baseline = 0.0;
  double overhead_fflush = 0.0;
  double overhead_fsync = 0.0;
  for (const IngestRow& r : rows) {
    core::StreamConfig cfg;
    if (r.durable) {
      cfg.durability.dir = scratch_dir(std::string("ingest_") +
                                       (r.sync == io::WalSync::kBatch ? "fsync"
                                                                      : "wal"));
      cfg.durability.sync = r.sync;
      cfg.durability.checkpoint_events = ckpt_events;
    }
    core::IncrementalEstimator eng(city, params, cfg);
    const double secs = run_ingest(eng, batches, fc.window);
    if (!r.durable) t_baseline = secs;
    const double overhead =
        t_baseline > 0.0 ? (secs / t_baseline - 1.0) * 100.0 : 0.0;
    if (r.durable && r.sync == io::WalSync::kNone) overhead_fflush = overhead;
    if (r.durable && r.sync == io::WalSync::kBatch) overhead_fsync = overhead;
    ingest.row()
        .cell(r.name)
        .cell(secs, 4)
        .cell(static_cast<double>(n_events) / secs, 0)
        .cell(overhead, 2)
        .cell(static_cast<std::int64_t>(eng.stats().wal_records))
        .cell(static_cast<std::int64_t>(eng.stats().durable_checkpoints))
        .cell(r.durable
                  ? static_cast<std::int64_t>(dir_bytes(cfg.durability.dir))
                  : std::int64_t{0});
  }
  ingest.print(std::cout);

  // Explicit durable checkpoint cost (grid + live set + WAL rotation).
  double ckpt_seconds = 0.0;
  {
    core::StreamConfig cfg;
    cfg.durability.dir = scratch_dir("ckpt_cost");
    core::IncrementalEstimator eng(city, params, cfg);
    run_ingest(eng, batches, fc.window);
    util::Timer t;
    eng.durable_checkpoint();
    ckpt_seconds = t.seconds();
  }
  std::cout << "\ndurable checkpoint (grid " << dims.gx << "x" << dims.gy
            << "x" << dims.gt << " + live set + WAL rotation): "
            << util::format_fixed(ckpt_seconds * 1e3, 2) << " ms\n\n";

  // --- Recovery: crash after the feed, recover fresh -----------------------
  // Cadence sweep: 0 = never checkpoint (recovery replays the entire WAL),
  // then halving cadences that bound the tail tighter and tighter.
  util::Table rec({"checkpoint_events", "recover_seconds", "replayed_batches",
                   "replayed_events", "replay_events_per_sec",
                   "checkpoint_loaded"});
  double recover_wal_only = 0.0;
  double recover_bounded = 0.0;
  double replay_rate = 0.0;
  const std::uint64_t cadences[] = {0, n_events / 2, n_events / 8};
  for (const std::uint64_t cadence : cadences) {
    core::StreamConfig cfg;
    cfg.durability.dir =
        scratch_dir("recover_" + std::to_string(cadence));
    cfg.durability.checkpoint_events = cadence;
    {
      core::IncrementalEstimator victim(city, params, cfg);
      run_ingest(victim, batches, fc.window);
      // "Crash": the estimator is abandoned; only the durable state
      // survives into the next scope.
    }
    core::IncrementalEstimator phoenix(city, params, cfg);
    util::Timer t;
    const core::RecoverReport rep = phoenix.recover();
    const double secs = t.seconds();
    if (cadence == 0) {
      recover_wal_only = secs;
      replay_rate = static_cast<double>(rep.events_replayed) / secs;
    }
    recover_bounded = secs;  // last (densest) cadence wins
    rec.row()
        .cell(static_cast<std::int64_t>(cadence))
        .cell(secs, 4)
        .cell(static_cast<std::int64_t>(rep.batches_replayed))
        .cell(static_cast<std::int64_t>(rep.events_replayed))
        .cell(secs > 0 ? static_cast<double>(rep.events_replayed) / secs : 0.0,
              0)
        .cell(rep.checkpoint_loaded ? "yes" : "no");
  }
  rec.print(std::cout);
  std::cout << "\nrecovery bounded by checkpoint cadence: "
            << util::format_fixed(recover_wal_only, 4) << " s (WAL-only) -> "
            << util::format_fixed(recover_bounded, 4)
            << " s (events/8 cadence)\n";

  bench::JsonArtifact json("recovery", env, cli);
  json.add_scalar("feed", "dengue");
  json.add_scalar("events", static_cast<std::int64_t>(n_events));
  json.add_scalar("days", static_cast<std::int64_t>(fc.days));
  json.add_scalar("window_days", fc.window);
  json.add_scalar("grid", std::to_string(dims.gx) + "x" +
                              std::to_string(dims.gy) + "x" +
                              std::to_string(dims.gt));
  json.add_scalar("ingest_baseline_seconds", t_baseline);
  json.add_scalar("wal_overhead_pct", overhead_fflush);
  json.add_scalar("fsync_overhead_pct", overhead_fsync);
  json.add_scalar("durable_checkpoint_ms", ckpt_seconds * 1e3);
  json.add_scalar("recover_wal_only_seconds", recover_wal_only);
  json.add_scalar("recover_bounded_seconds", recover_bounded);
  json.add_scalar("wal_replay_events_per_sec", replay_rate);
  json.add_scalar("checkpoints_bound_recovery",
                  recover_bounded <= recover_wal_only);
  json.add_table("ingest_overhead", ingest);
  json.add_table("recovery", rec);
  json.write();
  return 0;
}
