#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "grid/reduction.hpp"
#include "kernels/table_cache.hpp"
#include "partition/binning.hpp"
#include "partition/tile_order.hpp"
#include "sched/thread_pool.hpp"

namespace stkde::core {

// Algorithm 4 (PB-SYM-DR): every worker owns a full grid replica, points are
// split statically, replicas are summed at the end. Pleasingly parallel in
// all three phases, but Theta(P Gx Gy Gt) extra work and memory — the paper
// shows it losing badly on init-heavy instances and running out of memory
// on Flu Hr / eBird Hr (Fig. 8). The memory budget check reproduces the OOM
// behaviour as a typed exception before any allocation happens.
//
// The static split runs over the points in scatter order, not arrival
// order: all indices are Morton-sorted once as a single bin (the bin
// phase), so each chunk is a spatially compact part of the domain, and its
// stamps go through the shared cached stamp — spatial tables come from a
// leased per-chunk cache like DD/PD's instead of a fill per point. Chunk i
// always lands in replica i, so the worker that runs it does not matter.
Result run_pb_sym_dr(const PointSet& pts, const DomainSpec& dom,
                     const Params& p) {
  p.validate();
  const detail::RunSetup s(pts, dom, p);
  const int P = p.resolved_threads();
  Result res;
  res.diag.algorithm = to_string(Algorithm::kPBSymDR);

  const GridDims d = s.map.dims();
  const std::uint64_t grid_bytes =
      static_cast<std::uint64_t>(d.voxels()) * sizeof(float);
  // P replicas + the output grid must fit.
  util::MemoryBudget::instance().require(grid_bytes * (static_cast<std::uint64_t>(P) + 1));
  res.diag.extra_bytes = grid_bytes * static_cast<std::uint64_t>(P);

  PointBins order;
  {
    util::ScopedPhase bin(res.phases, phase::kBin);
    order = bin_by_owner(pts, s.map,
                         Decomposition::uniform(d, DecompRequest{1, 1, 1}));
    sort_bins_by_scatter_key(order, pts, s.map);
  }
  const std::vector<std::uint32_t>& idx = order.bins.front();

  sched::ThreadPool pool(P);
  std::vector<DenseGrid3<float>> replicas(static_cast<std::size_t>(P));
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(d);
    // Replica allocation + first-touch init in parallel, one per task.
    pool.parallel_for(P, [&](std::int64_t id) {
      replicas[static_cast<std::size_t>(id)].allocate(d);
      replicas[static_cast<std::size_t>(id)].fill(0.0f);
    });
  }

  {
    util::ScopedPhase compute(res.phases, phase::kCompute);
    const Extent3 whole = Extent3::whole(d);
    const auto n = static_cast<std::int64_t>(idx.size());
    std::vector<detail::LaneStats> lanes(static_cast<std::size_t>(P));
    kernels::TableCachePool cache_pool(
        kernels::TableCacheConfig{p.tile.table_quant, p.tile.cache_bytes},
        s.Hs);
    detail::with_kernel(p.kernel, [&](const auto& k) {
      pool.parallel_for(P, [&](std::int64_t id) {
        DenseGrid3<float>& local = replicas[static_cast<std::size_t>(id)];
        auto cache = cache_pool.acquire();
        kernels::TemporalInvariant kt;
        const std::int64_t chunk = (n + P - 1) / P;
        const std::int64_t lo = std::min<std::int64_t>(n, id * chunk);
        const std::int64_t hi = std::min<std::int64_t>(n, lo + chunk);
        detail::LaneStats ls;
        for (std::int64_t i = lo; i < hi; ++i)
          ls.count(detail::scatter_cached(
              local, whole, s.map, k,
              pts[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])],
              p.hs, p.ht, s.Hs, s.Ht, s.scale, *cache, kt));
        lanes[static_cast<std::size_t>(id)] = ls;
      });
    });
    detail::LaneStats::sum(lanes).store(res.diag);
    res.diag.table_lookups = cache_pool.lookups();
    res.diag.table_fills = cache_pool.fills();
  }

  {
    util::ScopedPhase reduce(res.phases, phase::kReduce);
    res.grid.fill_parallel(0.0f, pool);
    reduce_replicas(res.grid, replicas, pool);
  }
  return res;
}

}  // namespace stkde::core
