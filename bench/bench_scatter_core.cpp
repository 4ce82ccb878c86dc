// Scatter-core benchmark: the SIMD float/span core (scatter_sym and the
// table-driven PB-DISK/PB-BAR variants) against the retained scalar
// double-precision reference (scatter_sym_ref), on a Table-3-style
// reduction of PollenUS Hr-Hb — the paper's flagship PB-SYM instance
// (6.97x over PB, Table 3).
//
// --json <path> writes a machine-readable JSON artifact (nothing is written
// without it; CI passes it so the perf trajectory accumulates data run over
// run). --smoke shrinks the instance for CI.
//
// Timed region: the per-point scatter loop only (no grid init, no binning) —
// this is the code path the tentpole rebuilt, and what Fig. 7-15 sit behind.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "core/detail/tile_scatter.hpp"
#include "data/generator.hpp"
#include "partition/tile_order.hpp"
#include "sched/thread_pool.hpp"
#include "util/timer.hpp"

using namespace stkde;

namespace {

/// Sub-voxel positions per axis the bench events are recorded at. The
/// paper's source datasets come at fixed recording resolution (case days,
/// station coordinates, atlas cells); the continuous synthetic generator
/// erases that discreteness — which is exactly the structure PB-TILE's
/// offset-keyed table cache exploits. data::snap_to_lattice restores it.
/// Every variant, the scalar reference included, runs on the same snapped
/// set, so cross-variant equivalence is unaffected.
constexpr int kSnapSubdiv = 4;

data::InstanceSpec scatter_spec(const bench::BenchEnv& env) {
  const data::InstanceSpec& paper = data::paper_instance("PollenUS_Hr-Hb");
  data::ScaleBudget b;
  b.voxel_cap = std::min<std::int64_t>(env.budget.voxel_cap, 1'500'000);
  b.work_cap = env.budget.work_cap;
  data::InstanceSpec s = data::scale_instance(paper, b);
  // Restore the paper's bandwidth shape (grid shrinking scaled it away),
  // capped so a cylinder still fits comfortably inside the grid — the same
  // reduction bench_table3_sequential applies.
  s.Hs = std::min(paper.Hs, std::max(1, std::min(s.dims.gx, s.dims.gy) / 4));
  s.Ht = std::min(paper.Ht, std::max(1, s.dims.gt / 4));
  const double cyl =
      (2.0 * s.Hs + 1.0) * (2.0 * s.Hs + 1.0) * (2.0 * s.Ht + 1.0);
  s.n = static_cast<std::uint64_t>(std::max(
      1.0, std::min(static_cast<double>(s.n), b.work_cap / cyl)));
  return s;
}

/// Best-of-\p reps wall time of \p scatter_all; the grid is re-zeroed before
/// every rep (outside the timed region).
template <typename F>
double time_variant(int reps, DensityGrid& grid, F&& scatter_all) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    grid.fill(0.0f);
    util::Timer t;
    scatter_all();
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const bench::BenchEnv env = bench::bench_env(cli);
  bench::print_banner("Scatter core — SIMD float/span core vs scalar reference",
                      env);

  const data::InstanceSpec spec = scatter_spec(env);
  const data::Instance& inst = bench::load_instance(spec);
  const PointSet points =
      data::snap_to_lattice(inst.points, inst.domain, kSnapSubdiv);
  const Params params = bench::instance_params(inst, 1);
  const core::detail::RunSetup s(points, inst.domain, params);
  const Extent3 whole = Extent3::whole(s.map.dims());
  const int reps = cli.smoke ? 2 : 5;

  std::cout << "instance: " << spec.name << " (" << spec.dims.gx << "x"
            << spec.dims.gy << "x" << spec.dims.gt << ", n="
            << points.size() << ", Hs=" << s.Hs << ", Ht=" << s.Ht
            << ", events snapped to 1/" << kSnapSubdiv
            << "-voxel recording lattice), best of " << reps << " reps\n\n";

  DensityGrid grid(s.map.dims());
  double t_ref = 0.0, t_sym = 0.0, t_tile = 0.0, t_disk = 0.0, t_bar = 0.0,
         t_direct = 0.0;
  double t_tile_p2 = 0.0, t_tile_p4 = 0.0;
  double max_rel_diff = 0.0, max_rel_diff_tile = 0.0, max_rel_diff_tile_p4 = 0.0;
  double cache_hit_rate = 0.0, tile_replication = 1.0;
  std::int64_t span_cells = 0, table_cells = 0, table_nonzero = 0;
  std::int64_t cache_lookups = 0, cache_fills = 0, replica_tasks_p4 = 0;
  std::string par_schedule;
  std::string par_tiling;
  const TileParams tile_cfg{};  // default tiling

  core::detail::with_kernel(params.kernel, [&](const auto& k) {
    kernels::SpatialInvariantRef ks_ref;
    kernels::TemporalInvariantRef kt_ref;
    kernels::SpatialInvariant ks;
    kernels::TemporalInvariant kt;

    t_ref = time_variant(reps, grid, [&] {
      for (const Point& p : points)
        core::detail::scatter_sym_ref(grid, whole, s.map, k, p, params.hs,
                                      params.ht, s.Hs, s.Ht, s.scale, ks_ref,
                                      kt_ref);
    });
    t_sym = time_variant(reps, grid, [&] {
      for (const Point& p : points)
        core::detail::scatter_sym(grid, whole, s.map, k, p, params.hs,
                                  params.ht, s.Hs, s.Ht, s.scale, ks, kt);
    });
    // One PB-TILE pass as the strategy runs it: plan, bin and Morton-sort,
    // then the tile engine on cold per-worker scratch. The timed rows pay
    // for all of it every rep; \p lanes, when given, receives its counts.
    auto tile_pass = [&](int P, sched::ThreadPool* pool,
                         core::detail::LaneStats* lanes = nullptr) {
      const core::detail::TilePlan plan = core::detail::plan_tile_schedule(
          s.map.dims(), grid.row_stride(), sizeof(float), tile_cfg, P, s.Hs,
          s.Ht);
      const PointBins bins = tile_major_bins(points, s.map, plan.tiles, s.Hs,
                                             s.Ht, plan.bin_rule());
      core::detail::StampScratches scratch(s.Hs, P);
      const core::detail::TileScatterStats st =
          core::detail::scatter_tile_major(grid, whole, s, k, points, plan,
                                           bins, scratch, pool);
      if (lanes != nullptr) *lanes = scratch.lanes();
      return st;
    };
    t_tile = time_variant(reps, grid, [&] { tile_pass(1, nullptr); });
    // The parallel schedules at P = 2, 4.
    for (const int P : {2, 4}) {
      sched::ThreadPool pool(P);
      const double t_p =
          time_variant(reps, grid, [&] { tile_pass(P, &pool); });
      if (P == 2) {
        t_tile_p2 = t_p;
      } else {
        t_tile_p4 = t_p;
        const core::detail::TilePlan plan = core::detail::plan_tile_schedule(
            s.map.dims(), grid.row_stride(), sizeof(float), tile_cfg, P, s.Hs,
            s.Ht);
        par_schedule = core::detail::to_string(plan.schedule);
        par_tiling = plan.tiles.to_string();
      }
    }
    t_disk = time_variant(reps, grid, [&] {
      for (const Point& p : points)
        core::detail::scatter_disk(grid, whole, s.map, k, p, params.hs,
                                   params.ht, s.Hs, s.Ht, s.scale, ks);
    });
    t_bar = time_variant(reps, grid, [&] {
      for (const Point& p : points)
        core::detail::scatter_bar(grid, whole, s.map, k, p, params.hs,
                                  params.ht, s.Hs, s.Ht, s.scale, kt);
    });
    t_direct = time_variant(reps, grid, [&] {
      for (const Point& p : points)
        core::detail::scatter_direct(grid, whole, s.map, k, p, params.hs,
                                     params.ht, s.Hs, s.Ht, s.scale);
    });

    // Equivalence cross-check (also pinned by core_equivalence_test).
    DensityGrid ref_grid(s.map.dims());
    ref_grid.fill(0.0f);
    for (const Point& p : points)
      core::detail::scatter_sym_ref(ref_grid, whole, s.map, k, p, params.hs,
                                    params.ht, s.Hs, s.Ht, s.scale, ks_ref,
                                    kt_ref);
    const double peak = static_cast<double>(ref_grid.max_value());
    grid.fill(0.0f);
    // Untimed pass: also gathers the lane statistics the timed loops skip.
    for (const Point& p : points)
      if (core::detail::scatter_sym(grid, whole, s.map, k, p, params.hs,
                                    params.ht, s.Hs, s.Ht, s.scale, ks, kt)) {
        table_cells += ks.cells();
        span_cells += ks.span_cells();
        table_nonzero += ks.nonzero();
      }
    max_rel_diff = peak > 0.0 ? grid.max_abs_diff(ref_grid) / peak : 0.0;
    // Untimed PB-TILE pass: cache diagnostics + its own equivalence bound.
    grid.fill(0.0f);
    core::detail::LaneStats lanes;
    tile_pass(1, nullptr, &lanes);
    cache_lookups = lanes.lookups;
    cache_fills = lanes.fills;
    cache_hit_rate = cache_lookups > 0
                         ? 1.0 - static_cast<double>(cache_fills) /
                                     static_cast<double>(cache_lookups)
                         : 0.0;
    tile_replication =
        points.empty() ? 1.0
                       : static_cast<double>(cache_lookups) /
                             static_cast<double>(points.size());
    max_rel_diff_tile = peak > 0.0 ? grid.max_abs_diff(ref_grid) / peak : 0.0;
    // Untimed parallel pass (P=4): equivalence bound for the wave schedule.
    {
      grid.fill(0.0f);
      sched::ThreadPool pool(4);
      replica_tasks_p4 = tile_pass(4, &pool).replica_tasks;
      max_rel_diff_tile_p4 =
          peak > 0.0 ? grid.max_abs_diff(ref_grid) / peak : 0.0;
    }
  });

  // Per-stamped-voxel cost: every variant updates exactly the voxels inside
  // the spatial support (the SIMD core via spans, the reference via `== 0`
  // branches), so nonzero-table-cells * T-run is the common denominator.
  // Stats come from the single untimed equivalence pass.
  const double truns = 2.0 * s.Ht + 1.0;
  const double stamped_voxels = static_cast<double>(table_nonzero) * truns;

  util::Table t({"variant", "seconds", "speedup_vs_ref",
                 "ns_per_stamped_voxel"});
  const auto add = [&](const char* name, double sec) {
    t.row()
        .cell(name)
        .cell(sec, 6)
        .cell(t_ref / sec, 3)
        .cell(stamped_voxels > 0.0 ? sec / stamped_voxels * 1e9 : 0.0, 3);
  };
  add("scalar_ref(sym)", t_ref);
  add("pb_sym", t_sym);
  add("pb_tile", t_tile);
  add("pb_tile_p2", t_tile_p2);
  add("pb_tile_p4", t_tile_p4);
  add("pb_disk", t_disk);
  add("pb_bar", t_bar);
  add("pb_direct", t_direct);
  t.print(std::cout);

  const double speedup = t_ref / t_sym;
  const double tile_speedup_vs_sym = t_sym / t_tile;
  const double par_measured_p4 = t_tile / t_tile_p4;
  // A host with fewer than 4 hardware threads cannot run 4 workers at once:
  // its P=4 time says nothing about the floor, so the verdict is withheld.
  const unsigned host_threads = std::thread::hardware_concurrency();
  const char* par_verdict = host_threads < 4         ? "not measured"
                            : par_measured_p4 >= 1.0 ? "pass"
                                                     : "fail";
  std::cout << "\nPB-SYM SIMD core speedup over scalar reference: "
            << util::format_fixed(speedup, 3) << "x"
            << "  (acceptance floor: 1.5x)\n"
            << "max relative grid diff vs reference: " << max_rel_diff << "\n"
            << "\nPB-TILE speedup over PB-SYM: "
            << util::format_fixed(tile_speedup_vs_sym, 3) << "x"
            << "  (acceptance floor: 1.25x)\n"
            << "PB-TILE table-cache hit rate: "
            << util::format_fixed(cache_hit_rate * 100.0, 1) << "%  ("
            << cache_fills << " fills / " << cache_lookups
            << " lookups, tile replication "
            << util::format_fixed(tile_replication, 3) << ")\n"
            << "PB-TILE max relative grid diff vs reference: "
            << max_rel_diff_tile << "\n"
            << "\nParallel PB-TILE (" << par_schedule << ", " << par_tiling
            << " tiles, " << replica_tasks_p4
            << " hotspot replica tasks): measured "
            << util::format_fixed(par_measured_p4, 3)
            << "x over serial PB-TILE at P=4  (floor: 1x, " << par_verdict;
  if (host_threads < 4)
    std::cout << " — host has " << host_threads << " hardware threads";
  std::cout << ")\n"
            << "parallel PB-TILE max relative grid diff vs reference: "
            << max_rel_diff_tile_p4 << "\n";

  bench::JsonArtifact json("scatter_core", env, cli);
  json.add_scalar("instance", spec.name);
  json.add_scalar("n", static_cast<std::int64_t>(points.size()));
  json.add_scalar("Hs", static_cast<std::int64_t>(s.Hs));
  json.add_scalar("Ht", static_cast<std::int64_t>(s.Ht));
  json.add_scalar("reps", static_cast<std::int64_t>(reps));
  json.add_scalar("snap_subdiv", static_cast<std::int64_t>(kSnapSubdiv));
  json.add_scalar("pb_sym_speedup_vs_ref", speedup);
  json.add_scalar("max_rel_diff_vs_ref", max_rel_diff);
  json.add_scalar("pb_tile_speedup_vs_sym", tile_speedup_vs_sym);
  json.add_scalar("pb_tile_speedup_vs_ref", t_ref / t_tile);
  json.add_scalar("max_rel_diff_tile_vs_ref", max_rel_diff_tile);
  json.add_scalar("pb_tile_parallel_schedule", par_schedule);
  json.add_scalar("pb_tile_parallel_tiling", par_tiling);
  json.add_scalar("pb_tile_p2_speedup_vs_serial_tile", t_tile / t_tile_p2);
  json.add_scalar("pb_tile_p4_speedup_vs_serial_tile", par_measured_p4);
  json.add_scalar("pb_tile_p4_floor_1x", par_verdict);
  json.add_scalar("pb_tile_p4_replica_tasks", replica_tasks_p4);
  json.add_scalar("max_rel_diff_tile_p4_vs_ref", max_rel_diff_tile_p4);
  json.add_scalar("table_cache_hit_rate", cache_hit_rate);
  json.add_scalar("table_cache_lookups", cache_lookups);
  json.add_scalar("table_cache_fills", cache_fills);
  json.add_scalar("tile_replication_factor", tile_replication);
  json.add_scalar("span_cells_per_pass", span_cells);
  json.add_scalar("table_cells_per_pass", table_cells);
  json.add_scalar("table_nonzero_per_pass", table_nonzero);
  json.add_table("variants", t);
  json.write();
  return 0;
}
