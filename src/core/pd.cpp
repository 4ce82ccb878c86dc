#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "partition/binning.hpp"
#include "partition/load.hpp"
#include "partition/tile_order.hpp"
#include "sched/critical_path.hpp"
#include "sched/thread_pool.hpp"

namespace stkde::core {

// Algorithm 6 (PB-SYM-PD): work-efficient point decomposition. Points are
// binned into their owning subdomain (no replication); subdomains at least
// 2Hs/2Ht wide guarantee that same-parity subdomains never write the same
// voxel, so the 8 parity sets run as 8 parallel_for phases. Writes are
// unclipped — a subdomain's points may spill into neighbors' voxels, which
// is safe because neighbors are in other parity sets.
//
// Tile treatment (docs/SCATTER_CORE.md): each bin is Morton-sorted so a
// worker walks its subdomain in scatter order, and spatial tables come from
// the worker's offset-keyed cache (Params::tile knobs) instead of a fresh
// fill per point.
Result run_pb_sym_pd(const PointSet& pts, const detail::RunSetup& s,
                     const Params& p) {
  const int P = p.resolved_threads();
  Result res;
  res.diag.algorithm = to_string(Algorithm::kPBSymPD);

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
  // Color (a%2)*4 + (b%2)*2 + c%2: the 8 parity sets, in phase order.
  const sched::StencilGraph g = sched::StencilGraph::of(dec);
  const sched::Coloring col = sched::parity_coloring(g);
  {
    // The implied schedule's T1/Tinf under the parity coloring (Fig. 12).
    const auto loads = point_count_loads(bins);
    res.diag.load_imbalance = imbalance(loads).imbalance;
    res.diag.num_colors = col.num_colors;
    const sched::DagMetrics m = sched::critical_path(g, col, loads);
    res.diag.total_work = m.total_work;
    res.diag.critical_path = m.critical_path;
  }

  sched::ThreadPool pool(P);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(d);
    res.grid.fill_parallel(0.0f, pool);
  }

  util::ScopedPhase compute(res.phases, phase::kCompute);
  const Extent3 whole = Extent3::whole(d);
  res.diag.task_seconds.assign(static_cast<std::size_t>(dec.count()), 0.0);
  std::vector<std::vector<std::int64_t>> sets(
      static_cast<std::size_t>(col.num_colors));
  for (std::int64_t v = 0; v < dec.count(); ++v)
    sets[static_cast<std::size_t>(col.color[static_cast<std::size_t>(v)])]
        .push_back(v);
  // Each worker's cache stays warm from one subdomain, and one parity set,
  // to the next.
  detail::StampScratches scratch(s.Hs, P);
  detail::with_kernel(p.kernel, [&](const auto& k) {
    for (const auto& set : sets)
      pool.parallel_for(
          static_cast<std::int64_t>(set.size()), [&](std::int64_t i) {
            util::Timer task_timer;
            const auto v = static_cast<std::size_t>(set[static_cast<std::size_t>(i)]);
            detail::stamp_bin(res.grid, whole, s, k, pts, bins.bins[v],
                              scratch.of(&pool));
            res.diag.task_seconds[v] = task_timer.seconds();
          });
  });
  scratch.store(res.diag);
  return res;
}

}  // namespace stkde::core
