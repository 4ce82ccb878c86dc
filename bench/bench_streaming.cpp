// Streaming-engine benchmark: sliding-window ingest throughput of the
// sharded IncrementalEstimator against the serial engine, on a dengue-style
// surveillance feed (the paper's motivating "timely density" workload).
//
// --json <path> writes the run as a JSON artifact (nothing is written
// without it; CI passes it so the streaming perf trajectory accumulates
// data run over run). --smoke shrinks the feed for CI.
//
// Every speedup is measured wall time. The tile plan each engine ran (the
// same plan_tile_schedule call IncrementalEstimator makes for every batch)
// is printed beside it. The 2x floor at 4 threads is judged only on a host
// that can run 4 workers at once; elsewhere it is reported as not measured.

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/detail/tile_scatter.hpp"
#include "core/incremental.hpp"
#include "data/datasets.hpp"
#include "util/timer.hpp"

using namespace stkde;

namespace {

struct FeedConfig {
  int days = 60;
  double window = 14.0;
  std::size_t per_day = 4000;
  double extent = 8000.0;  // meters; 50 m voxels
};

/// Daily batches of the sorted feed.
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

/// Ingest the whole feed through one engine; returns wall seconds.
double run_ingest(core::IncrementalEstimator& eng,
                  const std::vector<PointSet>& batches, double window) {
  util::Timer t;
  for (std::size_t day = 0; day < batches.size(); ++day)
    eng.advance_window(batches[day], static_cast<double>(day) + 1.0 - window);
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const bench::BenchEnv env = bench::bench_env(cli);
  bench::print_banner("Streaming engine — sharded sliding-window ingest", env);

  FeedConfig fc;
  if (cli.smoke) {
    // Still seconds-long, but batches stay large enough that the parity
    // waves have real work to balance.
    fc.days = 24;
    fc.per_day = 1500;
    fc.extent = 5000.0;
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

  const GridDims dims = city.dims();
  std::cout << "dengue feed: " << feed.size() << " events over " << fc.days
            << " days, " << fc.window << "-day window, grid " << dims.gx << "x"
            << dims.gy << "x" << dims.gt << "\n\n";

  // Drift policy for the run: one rebuild per ~64k retired events keeps the
  // long-stream snapshots within 1e-5 of each other (docs/STREAMING.md);
  // the rebuild cost is part of the measured ingest time for every engine.
  constexpr std::uint64_t kCheckpointRetires = std::uint64_t{1} << 16;

  // --- Serial baseline ------------------------------------------------------
  core::StreamConfig serial_cfg;
  serial_cfg.checkpoint_retires = kCheckpointRetires;
  core::IncrementalEstimator serial(city, params, serial_cfg);
  const double t_serial = run_ingest(serial, batches, fc.window);
  const DensityGrid ref = serial.snapshot();
  const double peak = static_cast<double>(ref.max_value());

  // The plan every batch runs at P threads: IncrementalEstimator::apply
  // makes this call on its own staging grid.
  auto plan_at = [&](int P) {
    const core::detail::TilePlan plan = core::detail::plan_tile_schedule(
        dims, serial.raw().row_stride(), sizeof(float), params.tile, P,
        city.spatial_bandwidth_voxels(params.hs),
        city.temporal_bandwidth_voxels(params.ht));
    return std::string(core::detail::to_string(plan.schedule)) + " " +
           plan.tiles.to_string();
  };

  // --- Sharded engines ------------------------------------------------------
  util::Table t(
      {"engine", "threads", "plan", "seconds", "events_per_sec", "speedup"});
  const double eps = static_cast<double>(feed.size());
  t.row()
      .cell("serial")
      .cell(std::int64_t{1})
      .cell(plan_at(1))
      .cell(t_serial, 4)
      .cell(eps / t_serial, 0)
      .cell(1.0, 3);

  double max_rel_diff_p4 = 0.0;
  double speedup_p2 = 0.0;
  double speedup_p4 = 0.0;
  std::uint64_t replica_tasks_p4 = 0;
  for (const int P : {2, 4}) {
    core::StreamConfig cfg;
    cfg.threads = P;
    cfg.checkpoint_retires = kCheckpointRetires;
    core::IncrementalEstimator sharded(city, params, cfg);
    const double t_p = run_ingest(sharded, batches, fc.window);
    t.row()
        .cell("sharded")
        .cell(static_cast<std::int64_t>(P))
        .cell(plan_at(P))
        .cell(t_p, 4)
        .cell(eps / t_p, 0)
        .cell(t_serial / t_p, 3);
    if (P == 2) speedup_p2 = t_serial / t_p;
    if (P == 4) {
      max_rel_diff_p4 =
          peak > 0.0 ? sharded.snapshot().max_abs_diff(ref) / peak : 0.0;
      speedup_p4 = t_serial / t_p;
      replica_tasks_p4 = sharded.stats().replica_tasks;
    }
  }
  t.print(std::cout);

  // A host with fewer than 4 hardware threads cannot run 4 workers at once:
  // its P=4 time says nothing about the floor, so the verdict is withheld.
  const unsigned host_threads = std::thread::hardware_concurrency();
  const bool host_can_measure = host_threads >= 4;
  const char* verdict = !host_can_measure  ? "not measured"
                        : speedup_p4 >= 2.0 ? "pass"
                                            : "fail";
  std::cout << "\nmax relative snapshot diff (P=4 vs serial): "
            << max_rel_diff_p4 << "  (equivalence bound: 1e-5)\n"
            << "hotspot replica tasks at P=4: " << replica_tasks_p4 << "\n"
            << "measured speedup at 4 threads: "
            << util::format_fixed(speedup_p4, 3) << "x  (floor: 2x, "
            << verdict;
  if (!host_can_measure)
    std::cout << " — host has " << host_threads << " hardware threads";
  std::cout << ")\n";

  bench::JsonArtifact json("streaming", env, cli);
  json.add_scalar("feed", "dengue");
  json.add_scalar("events", static_cast<std::int64_t>(feed.size()));
  json.add_scalar("days", static_cast<std::int64_t>(fc.days));
  json.add_scalar("window_days", fc.window);
  json.add_scalar("grid", std::to_string(dims.gx) + "x" +
                              std::to_string(dims.gy) + "x" +
                              std::to_string(dims.gt));
  json.add_scalar("plan_p4", plan_at(4));
  json.add_scalar("measured_speedup_p2", speedup_p2);
  json.add_scalar("measured_speedup_p4", speedup_p4);
  json.add_scalar("floor_2x_p4", verdict);
  json.add_scalar("max_rel_diff_p4_vs_serial", max_rel_diff_p4);
  json.add_scalar("snapshot_equivalent_1e5", max_rel_diff_p4 <= 1e-5);
  json.add_scalar("replica_tasks_p4",
                  static_cast<std::int64_t>(replica_tasks_p4));
  json.add_scalar("serial_retired",
                  static_cast<std::int64_t>(serial.stats().retired));
  json.add_scalar("checkpoint_retires",
                  static_cast<std::int64_t>(kCheckpointRetires));
  json.add_scalar("checkpoints",
                  static_cast<std::int64_t>(serial.stats().checkpoints));
  json.add_table("ingest", t);
  json.write();
  return 0;
}
