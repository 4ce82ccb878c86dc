#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "partition/binning.hpp"
#include "partition/load.hpp"
#include "partition/tile_order.hpp"
#include "sched/thread_pool.hpp"

namespace stkde::core {

// Algorithm 5 (PB-SYM-DD): the grid is split into A x B x C subdomains;
// each point is replicated into every subdomain its cylinder intersects,
// and subdomains are processed independently (ThreadPool::parallel_for's
// dynamic schedule).
// Historically a point split across subdomains recomputed both invariant
// tables per subdomain — the work overhead Fig. 9 measures. The tile
// treatment removes most of it: bins are Morton-sorted
// (sort_bins_by_scatter_key) so each worker walks its subdomain in scatter
// order, and spatial tables are served from the worker's offset-keyed
// cache (Params::tile knobs) — a replicated point's table is filled once
// per cache that sees its offset, not once per (point, subdomain) pair.
Result run_pb_sym_dd(const PointSet& pts, const detail::RunSetup& s,
                     const Params& p) {
  const int P = p.resolved_threads();
  Result res;
  res.diag.algorithm = to_string(Algorithm::kPBSymDD);

  const GridDims d = s.map.dims();
  const Decomposition dec = Decomposition::uniform(d, p.decomp);
  res.diag.decomposition = dec.to_string();
  res.diag.subdomains = dec.count();

  PointBins bins;
  {
    util::ScopedPhase bin(res.phases, phase::kBin);
    bins = bin_by_intersection(pts, s.map, dec, s.Hs, s.Ht);
    sort_bins_by_scatter_key(bins, pts, s.map);
  }
  res.diag.replication_factor = bins.replication_factor(pts.size());
  {
    const auto loads = point_count_loads(bins);
    res.diag.load_imbalance = imbalance(loads).imbalance;
  }

  sched::ThreadPool pool(P);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(d);
    res.grid.fill_parallel(0.0f, pool);
  }

  util::ScopedPhase compute(res.phases, phase::kCompute);
  const std::int64_t nsub = dec.count();
  res.diag.task_seconds.assign(static_cast<std::size_t>(nsub), 0.0);
  detail::StampScratches scratch(s.Hs, P);
  detail::with_kernel(p.kernel, [&](const auto& k) {
    pool.parallel_for(nsub, [&](std::int64_t v) {
      util::Timer task_timer;
      // Only the accumulation is clipped to the subdomain; the worker's
      // cache serves the full table and rebases it onto this cylinder, and
      // keeps the offsets seen so far for its next subdomain.
      detail::stamp_bin(res.grid, dec.subdomain(v), s, k, pts,
                        bins.bins[static_cast<std::size_t>(v)],
                        scratch.of(&pool));
      res.diag.task_seconds[static_cast<std::size_t>(v)] =
          task_timer.seconds();
    });
  });
  scratch.lanes().store(res.diag);
  return res;
}

}  // namespace stkde::core
