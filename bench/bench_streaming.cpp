// Streaming-engine benchmark: sliding-window ingest throughput of the
// sharded IncrementalEstimator against the serial engine, on a dengue-style
// surveillance feed (the paper's motivating "timely density" workload).
//
// --json <path> writes the run as a JSON artifact (nothing is written
// without it; CI passes it so the streaming perf trajectory accumulates
// data run over run). --smoke shrinks the feed for CI.
//
// Methodology (as bench/common for the figure benches): alongside the real
// measured wall time at each thread count, the artifact reports a *modeled*
// P-thread ingest time built from the engine's actual tile/wave structure —
// per-batch parity waves scheduled LPT onto P workers using the binned tile
// loads, plus the measured serial publish (grid copy) fraction. On a
// many-core host measured and modeled agree; on small CI hosts the model is
// what preserves the scaling shape.

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/incremental.hpp"
#include "data/datasets.hpp"
#include "partition/binning.hpp"
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
  // Finer tiles than the library default: at streaming batch sizes the LPT
  // balance of ~tile-per-worker waves matters more than per-tile overhead.
  core::StreamConfig serial_cfg;
  serial_cfg.tiles = DecompRequest{16, 16, 1};
  serial_cfg.checkpoint_retires = kCheckpointRetires;
  core::IncrementalEstimator serial(city, params, serial_cfg);
  const double t_serial = run_ingest(serial, batches, fc.window);
  const DensityGrid ref = serial.snapshot();
  const double peak = static_cast<double>(ref.max_value());

  const std::int32_t Hs = city.spatial_bandwidth_voxels(params.hs);
  const std::int32_t Ht = city.temporal_bandwidth_voxels(params.ht);

  // Publish cost (per batch, serial in every engine). Publishes are
  // dirty-region copies: in steady state the batch's scatter hull spans the
  // whole spatial domain but only the window's temporal slab.
  double t_pub = 0.0;
  {
    const std::int32_t slab =
        std::min(dims.gt, static_cast<std::int32_t>(fc.window) + 2 * Ht + 2);
    const Extent3 steady{0, dims.gx, 0, dims.gy, dims.gt - slab, dims.gt};
    DensityGrid copy(dims);
    util::Timer t;
    copy.copy_region(serial.raw(), steady);
    copy.copy_region(serial.raw(), steady);
    t_pub = t.seconds() / 2.0;
  }

  // --- Modeled wave makespans from the engine's own tile structure ----------
  // Re-derive each batch's scatter set (fresh events plus the events the
  // engine retires that day: every not-yet-retired event with t < cutoff),
  // bin it onto the serial engine's tiling, and collect each parity wave's
  // tile costs (cost = point count — all cylinders have equal volume).
  const Decomposition& dec = serial.tiling();
  const VoxelMapper map(city);
  const Extent3 whole = Extent3::whole(dims);
  // Halo buffer cost of a tile in point-equivalents (both the replica init
  // and each buffer fold-back touch the halo's cells once).
  const double cyl_cells = (2.0 * Hs + 1.0) * (2.0 * Hs + 1.0) * (2.0 * Ht + 1.0);
  std::vector<double> halo_equiv(static_cast<std::size_t>(dec.count()));
  for (std::int64_t v = 0; v < dec.count(); ++v)
    halo_equiv[static_cast<std::size_t>(v)] =
        static_cast<double>(
            dec.subdomain(v).expanded(Hs, Ht).intersect(whole).volume()) /
        cyl_cells;

  struct TileLoad {
    std::size_t tile;
    std::size_t n;
  };
  // Every advance_window() issues two sharded applies: the fresh batch and
  // the day's retired set. Collect each apply's per-tile loads.
  std::vector<std::vector<TileLoad>> applies;
  double total_scatter_points = 0.0;
  {
    std::size_t retired_lo = 0;
    for (std::size_t day = 0; day < batches.size(); ++day) {
      const double cutoff = static_cast<double>(day) + 1.0 - fc.window;
      PointSet expired;
      while (retired_lo < feed.size() && feed[retired_lo].t < cutoff)
        expired.push_back(feed[retired_lo++]);
      const PointSet* const day_sets[] = {&batches[day], &expired};
      for (const PointSet* set : day_sets) {
        if (set->empty()) continue;
        total_scatter_points += static_cast<double>(set->size());
        const PointBins bins = bin_by_owner(*set, map, dec);
        std::vector<TileLoad> loads;
        for (std::size_t v = 0; v < bins.bins.size(); ++v)
          if (!bins.bins[v].empty()) loads.push_back({v, bins.bins[v].size()});
        applies.push_back(std::move(loads));
      }
    }
  }
  // Seconds per scattered point, calibrated from the measured serial run
  // minus its publish fraction.
  const double nb = static_cast<double>(batches.size());
  const double scatter_seconds = std::max(1e-9, t_serial - nb * t_pub);
  const double sec_per_point =
      total_scatter_points > 0 ? scatter_seconds / total_scatter_points : 0.0;

  // Mirror the engine's schedule at P workers: hotspot tiles split into
  // replica chunks (pre-wave, LPT), everything else and the buffer
  // fold-backs run in the four parity waves (LPT each).
  auto modeled_seconds = [&](int P) {
    double sim_points = 0.0;
    for (const auto& loads : applies) {
      std::size_t set_size = 0;
      for (const TileLoad& l : loads) set_size += l.n;
      const std::size_t threshold = std::max<std::size_t>(
          32, set_size / (2 * static_cast<std::size_t>(P)));
      std::vector<double> pre;
      std::vector<std::vector<double>> waves(4);
      for (const TileLoad& l : loads) {
        const std::size_t r = std::min<std::size_t>(
            static_cast<std::size_t>(P), (l.n + threshold - 1) / threshold);
        std::int32_t a = 0, b = 0, c = 0;
        dec.coords(static_cast<std::int64_t>(l.tile), a, b, c);
        auto& wave = waves[static_cast<std::size_t>((a & 1) * 2 + (b & 1))];
        if (r < 2) {
          wave.push_back(static_cast<double>(l.n));
          continue;
        }
        for (std::size_t rep = 0; rep < r; ++rep)
          pre.push_back(static_cast<double>(l.n) / static_cast<double>(r) +
                        halo_equiv[l.tile]);
        wave.push_back(static_cast<double>(r) * halo_equiv[l.tile]);
      }
      sim_points += bench::lpt_makespan(pre, P);
      for (const auto& costs : waves)
        sim_points += bench::lpt_makespan(costs, P);
    }
    return sim_points * sec_per_point + nb * t_pub;
  };

  // --- Sharded engines ------------------------------------------------------
  util::Table t({"engine", "threads", "seconds", "events_per_sec",
                 "measured_speedup", "modeled_speedup"});
  const double eps = static_cast<double>(feed.size());
  t.row()
      .cell("serial")
      .cell(std::int64_t{1})
      .cell(t_serial, 4)
      .cell(eps / t_serial, 0)
      .cell(1.0, 3)
      .cell(1.0, 3);

  double max_rel_diff_p4 = 0.0;
  double measured_speedup_p4 = 0.0;
  double modeled_speedup_p4 = 0.0;
  std::uint64_t replica_tasks_p4 = 0;
  for (const int P : {2, 4}) {
    core::StreamConfig cfg;
    cfg.threads = P;
    cfg.tiles = serial_cfg.tiles;
    cfg.checkpoint_retires = kCheckpointRetires;
    core::IncrementalEstimator sharded(city, params, cfg);
    const double t_p = run_ingest(sharded, batches, fc.window);
    const double modeled = t_serial / modeled_seconds(P);
    t.row()
        .cell("sharded")
        .cell(static_cast<std::int64_t>(P))
        .cell(t_p, 4)
        .cell(eps / t_p, 0)
        .cell(t_serial / t_p, 3)
        .cell(modeled, 3);
    if (P == 4) {
      max_rel_diff_p4 =
          peak > 0.0 ? sharded.snapshot().max_abs_diff(ref) / peak : 0.0;
      measured_speedup_p4 = t_serial / t_p;
      modeled_speedup_p4 = modeled;
      replica_tasks_p4 = sharded.stats().replica_tasks;
    }
  }
  t.print(std::cout);

  // Acceptance verdict: on a host with >= 4 hardware threads the *measured*
  // number is authoritative; the model only stands in where 4 workers
  // cannot physically run in parallel.
  const bool host_can_measure = std::thread::hardware_concurrency() >= 4;
  const double acceptance_speedup =
      host_can_measure ? measured_speedup_p4 : modeled_speedup_p4;
  std::cout << "\nmax relative snapshot diff (P=4 vs serial): "
            << max_rel_diff_p4 << "  (equivalence bound: 1e-5)\n"
            << "acceptance speedup at 4 threads ("
            << (host_can_measure ? "measured" : "modeled — host has < 4 cores")
            << "): " << util::format_fixed(acceptance_speedup, 3)
            << "x  (floor: 2x, " << (acceptance_speedup >= 2.0 ? "PASS" : "FAIL")
            << ")\n";

  bench::JsonArtifact json("streaming", env, cli);
  json.add_scalar("feed", "dengue");
  json.add_scalar("events", static_cast<std::int64_t>(feed.size()));
  json.add_scalar("days", static_cast<std::int64_t>(fc.days));
  json.add_scalar("window_days", fc.window);
  json.add_scalar("grid", std::to_string(dims.gx) + "x" +
                              std::to_string(dims.gy) + "x" +
                              std::to_string(dims.gt));
  json.add_scalar("tiling", dec.to_string());
  json.add_scalar("publish_seconds_per_batch", t_pub);
  json.add_scalar("measured_speedup_p4", measured_speedup_p4);
  json.add_scalar("modeled_speedup_p4", modeled_speedup_p4);
  json.add_scalar("acceptance_basis", host_can_measure ? "measured" : "modeled");
  json.add_scalar("acceptance_speedup_p4", acceptance_speedup);
  json.add_scalar("acceptance_pass_2x", acceptance_speedup >= 2.0);
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
