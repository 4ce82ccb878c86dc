#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "partition/binning.hpp"
#include "partition/load.hpp"
#include "partition/tile_order.hpp"
#include "sched/critical_path.hpp"
#include "sched/dag_scheduler.hpp"
#include "sched/thread_pool.hpp"

namespace stkde::core {

// PB-SYM-PD-SCHED (§5.2): instead of 8 synchronized parity phases, model
// the subdomains as a 27-point stencil conflict graph, greedy-color it in
// non-increasing load order, orient edges low -> high color, and execute
// the resulting DAG with a dependency-counting list scheduler whose ready
// priority is the task load. Heavy subdomains are colored (and hence
// started) first, shortening the effective critical path.
Result run_pb_sym_pd_sched(const PointSet& pts, const detail::RunSetup& s,
                           const Params& p) {
  const int P = p.resolved_threads();
  Result res;
  res.diag.algorithm = to_string(Algorithm::kPBSymPDSched);

  const GridDims d = s.map.dims();
  const Decomposition dec = Decomposition::clamped(d, p.decomp, s.Hs, s.Ht);
  res.diag.decomposition = dec.to_string();
  res.diag.subdomains = dec.count();

  PointBins bins;
  {
    util::ScopedPhase bin(res.phases, phase::kBin);
    bins = bin_by_owner(pts, s.map, dec);
    sort_bins_by_scatter_key(bins, pts, s.map);
  }

  const sched::StencilGraph g = sched::StencilGraph::of(dec);
  const auto loads = point_count_loads(bins);
  sched::Coloring col;
  {
    util::ScopedPhase plan(res.phases, phase::kPlan);
    col = sched::greedy_coloring(g, sched::ColoringOrder::kLoadDescending,
                                 loads);
    const sched::DagMetrics m = sched::critical_path(g, col, loads);
    res.diag.num_colors = col.num_colors;
    res.diag.total_work = m.total_work;
    res.diag.critical_path = m.critical_path;
    res.diag.load_imbalance = imbalance(loads).imbalance;
  }

  sched::ThreadPool pool(P);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(d);
    res.grid.fill_parallel(0.0f, pool);
  }

  util::ScopedPhase compute(res.phases, phase::kCompute);
  const Extent3 whole = Extent3::whole(d);
  const std::int64_t nsub = dec.count();
  res.diag.task_seconds.assign(static_cast<std::size_t>(nsub), 0.0);
  // Tile treatment: every task stamps through its worker's table cache,
  // which persists for the run.
  detail::StampScratches scratch(s.Hs, P);
  detail::with_kernel(p.kernel, [&](const auto& k) {
    sched::DagScheduler dag;
    for (std::int64_t v = 0; v < nsub; ++v) {
      dag.add_task(
          [&, v] {
            detail::stamp_bin(res.grid, whole, s, k, pts,
                              bins.bins[static_cast<std::size_t>(v)],
                              scratch.of(&pool));
          },
          loads[static_cast<std::size_t>(v)]);
    }
    sched::add_color_edges(dag, g, col);
    dag.run(pool);
    for (std::int64_t v = 0; v < nsub; ++v)
      res.diag.task_seconds[static_cast<std::size_t>(v)] =
          dag.finish_times()[static_cast<std::size_t>(v)] -
          dag.start_times()[static_cast<std::size_t>(v)];
  });
  scratch.lanes().store(res.diag);
  return res;
}

}  // namespace stkde::core
