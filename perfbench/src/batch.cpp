// batch-pollen and batch-flu: one input per seed for the whole run, the five
// strategies round-robin in a fixed order, one estimate at a time. Every
// estimate is published to a SnapshotRegistry (the batch path to a served
// result) and checked against the serial PB-SYM grid of the same input; a
// dashboard client's four refreshes through the RequestExecutor close each
// round.

#include <cmath>
#include <memory>
#include <random>
#include <sstream>

#include "core/detail/tile_scatter.hpp"
#include "core/estimator.hpp"
#include "dashboard.hpp"
#include "data/datasets.hpp"
#include "data/generator.hpp"
#include "host.hpp"
#include "partition/tile_order.hpp"
#include "sched/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using stkde::Algorithm;
using stkde::DensityGrid;
using stkde::Result;

namespace {

struct BatchShape {
  stkde::data::Dataset dataset;
  stkde::GridDims dims;
  std::size_t n;
  double hs;
  double ht;
  int snap;  ///< sub-voxel lattice subdivision; 0 = continuous coordinates
};

// PollenUS profile on a grid under glibc's 32 MiB mmap ceiling (4.1 M
// voxels, 16.5 MB), events on a 1/4-voxel recording lattice, large Hs/Ht:
// compute-bound. Flu profile on a grid far above it (131 MB), continuous
// coordinates, small Hs/Ht: memory-bound (init and reduce).
BatchShape shape_of(const std::string& workload) {
  if (workload == "batch-pollen")
    return {stkde::data::Dataset::kPollenUS, {326, 151, 84}, 14000, 24.0, 6.0, 4};
  return {stkde::data::Dataset::kFlu, {256, 320, 400}, 12000, 3.0, 4.0, 0};
}

struct Strategy {
  const char* label;
  Algorithm algo;
  int threads;
};

// Fixed round-robin order; PB-SYM is first so its cold result can stand in
// for the reference until the untimed one exists (see run_batch).
constexpr Strategy kStrategies[] = {
    {"pb_sym", Algorithm::kPBSym, 1},
    {"pb_tile", Algorithm::kPBTile, 2},
    {"dr", Algorithm::kPBSymDR, 2},
    {"dd", Algorithm::kPBSymDD, 2},
    {"pd_sched_rep", Algorithm::kPBSymPDSchedRep, 2},
};
constexpr std::size_t kNS = std::size(kStrategies);
constexpr int kRefreshesPerRound = 4;  // K, the queries-per-version of live-dengue

/// Per-strategy samples of the steady rounds.
struct StrategySamples {
  std::vector<double> wall_ms;      ///< span around Estimator::run
  std::vector<double> fresh_ms;     ///< run + publish, until registry head
  std::vector<double> traced_ms;    ///< the same, traced rounds only
  std::vector<double> untraced_ms;  ///< the same, untraced rounds only
  std::vector<double> compute_ms, init_ms, bin_ms, plan_ms, reduce_ms;
  std::vector<double> compute_share, init_reduce_share, init_gbps;
  std::vector<double> hit_rate, fills, replication, cp_ratio, busy_share;
  std::vector<double> ns_per_stamp;
};

/// Fewest occupied tiles in any (a, b) parity class of PB-TILE's plan for
/// \p threads workers over this input (the tiles one wave can spread).
std::int64_t min_tiles_per_wave(const stkde::PointSet& pts,
                                const stkde::DomainSpec& dom, double hs,
                                double ht, int threads, std::string* schedule) {
  const stkde::VoxelMapper map(dom);
  const std::int32_t Hs = dom.spatial_bandwidth_voxels(hs);
  const std::int32_t Ht = dom.temporal_bandwidth_voxels(ht);
  DensityGrid probe;
  probe.allocate(stkde::Extent3::whole(map.dims()), stkde::RowPad::kCacheLine);
  const auto plan = stkde::core::detail::plan_tile_schedule(
      map.dims(), probe.row_stride(), sizeof(float), stkde::TileParams{},
      threads, Hs, Ht);
  *schedule = stkde::core::detail::to_string(plan.schedule);
  const stkde::PointBins bins =
      stkde::tile_major_bins(pts, map, plan.tiles, Hs, Ht, plan.bin_rule());
  std::int64_t occupied[4] = {0, 0, 0, 0};
  for (std::int64_t v = 0; v < plan.tiles.count(); ++v) {
    if (bins.bins[static_cast<std::size_t>(v)].empty()) continue;
    std::int32_t a = 0, b = 0, c = 0;
    plan.tiles.coords(v, a, b, c);
    ++occupied[(a % 2) * 2 + (b % 2)];
  }
  return *std::min_element(std::begin(occupied), std::end(occupied));
}

double max_diff(const DensityGrid& a, const DensityGrid& b) {
  return static_cast<double>(a.max_abs_diff(b));
}

}  // namespace

PhaseResult run_batch(const Options& o) {
  PhaseResult out;
  const BatchShape sh = shape_of(o.workload);
  const stkde::DomainSpec dom{0.0, 0.0, 0.0,
                              static_cast<double>(sh.dims.gx),
                              static_cast<double>(sh.dims.gy),
                              static_cast<double>(sh.dims.gt), 1.0, 1.0};
  stkde::PointSet pts = stkde::data::generate_dataset(sh.dataset, dom, sh.n, o.seed);
  if (sh.snap > 0) pts = stkde::data::snap_to_lattice(pts, dom, sh.snap);
  const std::int32_t Ht = dom.temporal_bandwidth_voxels(sh.ht);
  std::mt19937_64 rng(o.seed ^ 0x5eedu);
  Tracer tracer(o.trace);
  std::uint64_t request = 0;

  // ---- set-up: cold start to the end of the first round ----------------
  const double setup_t0 = now_s();
  stkde::serve::SnapshotRegistry reg(dom);
  stkde::sched::ThreadPool serve_pool(1);
  stkde::serve::RequestExecutor exec(reg, serve_pool);
  std::vector<stkde::Estimator> est;
  for (const Strategy& s : kStrategies) {
    stkde::Params p;
    p.hs = sh.hs;
    p.ht = sh.ht;
    p.threads = s.threads;
    if (s.algo == Algorithm::kPBTile) p.tile.threads = s.threads;
    est.emplace_back(s.algo, p);
  }
  Dashboard dash(reg, exec, tracer);

  std::uint64_t version = 0;
  std::shared_ptr<const DensityGrid> reference;  // untimed serial PB-SYM
  std::shared_ptr<const DensityGrid> first;      // setup round's PB-SYM
  std::vector<double> first_round_diffs;
  double worst_diff = 0.0;
  double tol = 0.0;
  std::array<StrategySamples, kNS> samples;
  std::vector<double> refresh_ms;
  std::vector<double> ref_ms;
  double min_compute_share = 1.0;
  double min_init_reduce_share = 1.0;

  // Each strategy once, in order; a thrown estimate counts as a failure.
  auto estimates = [&](int r, bool steady, bool traced) {
    for (std::size_t i = 0; i < kNS; ++i) {
      const Strategy& s = kStrategies[i];
      ++request;
      const double t0 = now_s();
      const int span = traced ? tracer.open(std::string("core.run.") + s.label, request) : -1;
      Result res;
      bool ok = true;
      try {
        res = est[i].run(pts, dom);
      } catch (const std::exception& e) {
        ok = false;
        out.report.push_back(std::string("estimate failed: ") + s.label + ": " + e.what());
      }
      tracer.close(span);
      const double t1 = now_s();
      if (!ok) {
        out.outcomes.record(false);
        continue;
      }
      auto grid = std::make_shared<const DensityGrid>(std::move(res.grid));
      reg.publish(stkde::serve::Snapshot{grid, 1, ++version});
      const double t2 = now_s();

      // Correctness, untimed.
      if (r == 0) {
        if (i == 0) first = grid;
        if (first)
          first_round_diffs.push_back(max_diff(*grid, *first));
        else
          out.outcomes.record(false);  // no PB-SYM result to compare with
      } else {
        const double d = max_diff(*grid, *reference);
        worst_diff = std::max(worst_diff, d);
        out.outcomes.record(d <= tol);
        if (d > tol)
          out.report.push_back(std::string("estimate differs from PB-SYM: ") +
                               s.label + " max|diff| " + num(d) + " > " + num(tol));
      }
      if (!steady) continue;

      StrategySamples& ss = samples[i];
      const double wall = (t1 - t0) * 1e3;
      ss.wall_ms.push_back(wall);
      (traced ? ss.traced_ms : ss.untraced_ms).push_back(wall);
      ss.fresh_ms.push_back((t2 - t0) * 1e3);
      const auto& ph = res.phases;
      const double compute = ph.seconds(stkde::phase::kCompute) * 1e3;
      const double init = ph.seconds(stkde::phase::kInit) * 1e3;
      const double reduce = ph.seconds(stkde::phase::kReduce) * 1e3;
      ss.compute_ms.push_back(compute);
      ss.init_ms.push_back(init);
      ss.bin_ms.push_back(ph.seconds(stkde::phase::kBin) * 1e3);
      ss.plan_ms.push_back(ph.seconds(stkde::phase::kPlan) * 1e3);
      ss.reduce_ms.push_back(reduce);
      ss.compute_share.push_back(compute / wall);
      ss.init_reduce_share.push_back((init + reduce) / wall);
      min_compute_share = std::min(min_compute_share, compute / wall);
      min_init_reduce_share = std::min(min_init_reduce_share, (init + reduce) / wall);
      const double init_bytes = s.algo == Algorithm::kPBSymDR
                                    ? static_cast<double>(res.diag.extra_bytes)
                                    : static_cast<double>(grid->bytes());
      if (init > 0.0) ss.init_gbps.push_back(init_bytes / (init * 1e-3) / 1e9);
      ss.hit_rate.push_back(res.diag.table_cache_hit_rate());
      ss.fills.push_back(static_cast<double>(res.diag.table_fills));
      ss.replication.push_back(res.diag.replication_factor);
      if (res.diag.total_work > 0.0)
        ss.cp_ratio.push_back(res.diag.critical_path / res.diag.total_work);
      double task_s = 0.0;
      for (const double t : res.diag.task_seconds) task_s += t;
      if (compute > 0.0 && !res.diag.task_seconds.empty())
        ss.busy_share.push_back(task_s / (s.threads * compute * 1e-3));
      if (s.algo == Algorithm::kPBSym && res.diag.table_nonzero > 0)
        ss.ns_per_stamp.push_back(compute * 1e6 /
                                  (static_cast<double>(res.diag.table_nonzero) *
                                   (2.0 * Ht + 1.0)));
    }
  };
  // K dashboard refreshes against the newest published estimate, as on
  // live-dengue. The first finds the grid cold in cache and the others warm;
  // with K = 4 the median sits inside the warm population instead of
  // jumping between the two.
  auto refresh = [&](bool steady, bool traced) {
    for (int k = 0; k < kRefreshesPerRound; ++k) {
      const auto queries = make_refresh(
          dom, std::uniform_int_distribution<std::int32_t>(7, sh.dims.gt - 1)(rng), 7, rng);
      const double ms = dash.refresh(queries, ++request, traced, out.outcomes);
      if (steady) refresh_ms.push_back(ms);
    }
  };

  estimates(0, false, false);
  const double setup_s = now_s() - setup_t0;

  // Untimed reference, then settle the setup round's verdicts through it:
  // |x - ref| <= |x - first| + |first - ref|.
  {
    stkde::Params p;
    p.hs = sh.hs;
    p.ht = sh.ht;
    p.threads = 1;
    reference = std::make_shared<const DensityGrid>(
        stkde::Estimator(Algorithm::kPBSym, p).run(pts, dom).grid);
    tol = 1e-5 * static_cast<double>(reference->max_value()) + 1e-12;
    const double d0 = first ? max_diff(*first, *reference) : 0.0;
    for (const double d : first_round_diffs) {
      worst_diff = std::max(worst_diff, d + d0);
      out.outcomes.record(d + d0 <= tol);
    }
    first.reset();
  }

  std::ostringstream hdr;
  hdr << o.workload << ": grid " << sh.dims.gx << "x" << sh.dims.gy << "x"
      << sh.dims.gt << " (" << num(static_cast<double>(sh.dims.voxels()) * 4e-6)
      << " MB), n " << pts.size() << ", hs " << sh.hs << ", ht " << sh.ht
      << (sh.snap > 0 ? ", snapped to 1/4 voxel" : ", continuous")
      << "; PB-SYM 1 thread, others 2 threads";
  out.report.push_back(hdr.str());

  if (o.phase == "probe") {
    // Peak RSS at a fixed operation count, the same on every commit: ten
    // estimates (the setup round and one more). The refreshes that close
    // the round run after the reading, for their correctness checks.
    estimates(1, false, false);
    out.metrics.put("setup_s", setup_s, "s");
    out.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    refresh(false, false);
    return out;
  }

  // ---- timed closed loop ----------------------------------------------
  const CpuTimes cpu0 = cpu_times();
  const double loop_t0 = now_s();
  int r = 1;
  while (now_s() - loop_t0 < o.seconds) {
    const bool traced = o.trace && (r % 2 == 1);
    estimates(r, true, traced);
    refresh(true, traced);
    ref_ms.push_back(ref_loop_ms());
    ++r;
  }
  const double steal = steal_share(cpu0, cpu_times());
  const int rounds = r - 1;

  // ---- results -------------------------------------------------------
  std::vector<std::vector<double>> walls, fresh;
  for (const auto& ss : samples) {
    walls.push_back(ss.wall_ms);
    fresh.push_back(ss.fresh_ms);
  }
  std::ostringstream v;
  v << "correctness: " << out.outcomes.attempted << " checks, max|diff| vs PB-SYM "
    << num(worst_diff) << " (tolerance " << num(tol) << "), " << dash.kinds_checked()
    << "/6 query kinds checked on the pinned grid";
  out.report.push_back(v.str());
  for (const auto& f : dash.failures()) out.report.push_back("FAIL " + f);
  out.report.push_back("rounds " + std::to_string(rounds) + " in " +
                       num(now_s() - loop_t0) + " s");
  for (std::size_t i = 0; i < kNS; ++i)
    out.report.push_back(describe(std::string("core.estimate_ms.") + kStrategies[i].label,
                                  samples[i].wall_ms, 0, "ms"));
  for (std::size_t i = 0; i < kNS; ++i)
    out.report.push_back(describe(std::string("freshness_ms.") + kStrategies[i].label,
                                  samples[i].fresh_ms, 0, "ms"));
  out.report.push_back(describe("refresh_ms", refresh_ms, 0, "ms"));
  for (const auto& line : dash.describe_kinds()) out.report.push_back(line);

  if (!o.trace) {
    out.metrics.put("estimate_ms", geomean_of_medians(walls), "ms");
    out.metrics.put("freshness_ms.p50", geomean_of_medians(fresh), "ms");
    out.report.push_back("this process: setup " + num(setup_s) + " s, peak RSS at exit " +
                         num(peak_rss_mb()) + " MB (not gated: the probes measure both)");
    host_record(ref_ms, steal, false, out);
    return out;
  }

  // Per-layer metrics (traced run). Counters and phase times are read from
  // every steady round; span-derived times from the traced rounds.
  for (std::size_t i = 0; i < kNS; ++i) {
    const std::string s = kStrategies[i].label;
    const StrategySamples& ss = samples[i];
    out.metrics.put("core.estimate_ms." + s,
                    median_or_zero(tracer.durations_ms("core.run." + s)), "ms");
    out.metrics.put("core.compute_ms." + s, median_or_zero(ss.compute_ms), "ms");
    out.metrics.put("core.compute_share." + s, median_or_zero(ss.compute_share), "ratio");
    out.metrics.put("grid.init_ms." + s, median_or_zero(ss.init_ms), "ms");
    out.metrics.put("grid.init_gbps." + s, median_or_zero(ss.init_gbps), "GB/s");
    out.metrics.put("grid.init_reduce_share." + s, median_or_zero(ss.init_reduce_share), "ratio");
  }
  const StrategySamples& tile = samples[1];
  const StrategySamples& dr = samples[2];
  const StrategySamples& dd = samples[3];
  const StrategySamples& rep = samples[4];
  out.metrics.put("core.stream.advance_ms.p50", 0.0, "ms");
  out.metrics.put("core.stream.events_per_busy_s", 0.0, "1/s");
  out.metrics.put("core.stream.checkpoints", 0.0, "count");
  out.metrics.put("core.stream.replica_tasks", 0.0, "count");
  out.metrics.put("kernels.ns_per_stamp", median_or_zero(samples[0].ns_per_stamp), "ns");
  out.metrics.put("kernels.table_hit_rate.pb_tile", median_or_zero(tile.hit_rate), "ratio");
  out.metrics.put("kernels.table_hit_rate.dd", median_or_zero(dd.hit_rate), "ratio");
  out.metrics.put("kernels.table_hit_rate.pd_sched_rep", median_or_zero(rep.hit_rate), "ratio");
  out.metrics.put("kernels.table_hit_rate.stream", 0.0, "ratio");
  out.metrics.put("kernels.table_fills.pb_tile", median_or_zero(tile.fills), "count");
  out.metrics.put("kernels.table_fills.dd", median_or_zero(dd.fills), "count");
  out.metrics.put("kernels.table_fills.pd_sched_rep", median_or_zero(rep.fills), "count");
  out.metrics.put("kernels.table_fills.stream", 0.0, "count");
  out.metrics.put("grid.reduce_ms.dr", median_or_zero(dr.reduce_ms), "ms");
  out.metrics.put("grid.publish_copy_mb", 0.0, "MB");
  out.metrics.put("partition.bin_ms.pb_tile", median_or_zero(tile.bin_ms), "ms");
  out.metrics.put("partition.bin_ms.dd", median_or_zero(dd.bin_ms), "ms");
  out.metrics.put("partition.bin_ms.pd_sched_rep", median_or_zero(rep.bin_ms), "ms");
  out.metrics.put("partition.replication_factor.dd", median_or_zero(dd.replication), "ratio");
  for (const int P : {2, 4}) {
    std::string schedule;
    const auto m = min_tiles_per_wave(pts, dom, sh.hs, sh.ht, P, &schedule);
    out.metrics.put("partition.min_tiles_per_wave.p" + std::to_string(P),
                    static_cast<double>(m), "count");
    out.report.push_back("PB-TILE plan at P=" + std::to_string(P) + ": " + schedule +
                         ", fewest occupied tiles in a parity class " + std::to_string(m));
  }
  out.metrics.put("sched.plan_ms.pd_sched_rep", median_or_zero(rep.plan_ms), "ms");
  out.metrics.put("sched.critical_path_ratio.pd_sched_rep", median_or_zero(rep.cp_ratio), "ratio");
  out.metrics.put("sched.busy_share.dd", median_or_zero(dd.busy_share), "ratio");
  out.metrics.put("sched.busy_share.pd_sched_rep", median_or_zero(rep.busy_share), "ratio");
  serve_layer_metrics(dash, exec.stats(), reg.stats(), out);

  // Tracing overhead on the measured operation: traced vs untraced rounds'
  // estimates (the replay that follows a traced refresh is not timed).
  std::vector<std::vector<double>> traced, untraced;
  for (const auto& ss : samples) {
    traced.push_back(ss.traced_ms);
    untraced.push_back(ss.untraced_ms);
  }
  if (samples[0].untraced_ms.empty()) {
    out.metrics.put("trace.overhead_pct", 0.0, "%");
    out.report.push_back("trace.overhead_pct unmeasured: no untraced round ran");
  } else {
    out.metrics.put("trace.overhead_pct",
                    (geomean_of_medians(traced) / geomean_of_medians(untraced) - 1.0) * 100.0,
                    "%");
  }
  host_record(ref_ms, steal, true, out);
  out.report.push_back("layers idle in this workload, reported as 0: core.stream.*, "
                       "kernels.*.stream, grid.publish_copy_mb");
  // Regime checks of the workload's design (informational).
  // Each strategy's median estimate is held to the regime; the single
  // worst estimate is printed beside it (one slow page-fault burst can
  // move it).
  double worst_median_share = 1.0;
  for (const auto& ss : samples)
    worst_median_share = std::min(worst_median_share,
                                  o.workload == "batch-pollen" ? median_or_zero(ss.compute_share)
                                                               : median_or_zero(ss.init_reduce_share));
  std::ostringstream rg;
  if (o.workload == "batch-pollen")
    rg << "regime: compute share of every strategy's median estimate >= 0.90: "
       << (worst_median_share >= 0.90 ? "yes" : "NO") << " (lowest " << num(worst_median_share)
       << ", lowest single estimate " << num(min_compute_share)
       << "); PB-TILE table hit rate >= 0.99: " << (median_or_zero(tile.hit_rate) >= 0.99 ? "yes" : "NO");
  else
    rg << "regime: init+reduce share of every strategy's median estimate > 0.50: "
       << (worst_median_share > 0.50 ? "yes" : "NO") << " (lowest " << num(worst_median_share)
       << ", lowest single estimate " << num(min_init_reduce_share)
       << "); PB-TILE table hit rate near 0: " << num(median_or_zero(tile.hit_rate));
  out.report.push_back(rg.str());
  return out;
}

}  // namespace perfbench
