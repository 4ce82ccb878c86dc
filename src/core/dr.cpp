#include <omp.h>

#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "grid/reduction.hpp"
#include "kernels/table_cache.hpp"
#include "partition/binning.hpp"
#include "partition/tile_order.hpp"

namespace stkde::core {

// Algorithm 4 (PB-SYM-DR): every thread owns a full grid replica, points are
// split statically, replicas are summed at the end. Pleasingly parallel in
// all three phases, but Theta(P Gx Gy Gt) extra work and memory — the paper
// shows it losing badly on init-heavy instances and running out of memory
// on Flu Hr / eBird Hr (Fig. 8). The memory budget check reproduces the OOM
// behaviour as a typed exception before any allocation happens.
//
// The static split runs over the points in scatter order, not arrival
// order: all indices are Morton-sorted once as a single bin (the bin
// phase), so each thread's contiguous chunk is a spatially compact part of
// the domain, and its stamps go through the shared cached stamp — spatial
// tables come from a leased per-thread cache like DD/PD's instead of a
// fill per point.
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

  std::vector<DenseGrid3<float>> replicas(static_cast<std::size_t>(P));
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(d);
    // Replica allocation + first-touch init in parallel, one per thread.
#pragma omp parallel num_threads(P)
    {
      const int id = omp_get_thread_num();
      replicas[static_cast<std::size_t>(id)].allocate(d);
      replicas[static_cast<std::size_t>(id)].fill(0.0f);
    }
  }

  {
    util::ScopedPhase compute(res.phases, phase::kCompute);
    const Extent3 whole = Extent3::whole(d);
    const auto n = static_cast<std::int64_t>(idx.size());
    std::int64_t cells = 0, span = 0, nz = 0;
    kernels::TableCachePool cache_pool(
        kernels::TableCacheConfig{p.tile.table_quant, p.tile.cache_bytes},
        s.Hs);
    detail::with_kernel(p.kernel, [&](const auto& k) {
#pragma omp parallel num_threads(P) reduction(+ : cells, span, nz)
      {
        const int id = omp_get_thread_num();
        DenseGrid3<float>& local = replicas[static_cast<std::size_t>(id)];
        auto cache = cache_pool.acquire();
        kernels::TemporalInvariant kt;
        const std::int64_t chunk = (n + P - 1) / P;
        const std::int64_t lo = std::min<std::int64_t>(n, id * chunk);
        const std::int64_t hi = std::min<std::int64_t>(n, lo + chunk);
        for (std::int64_t i = lo; i < hi; ++i) {
          const detail::CachedStamp st = detail::scatter_cached(
              local, whole, s.map, k,
              pts[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])],
              p.hs, p.ht, s.Hs, s.Ht, s.scale, *cache, kt);
          if (st.filled) {
            cells += st.table->cells();
            span += st.table->span_cells();
            nz += st.table->nonzero();
          }
        }
      }
    });
    res.diag.table_cells = cells;
    res.diag.span_cells = span;
    res.diag.table_nonzero = nz;
    res.diag.table_lookups = cache_pool.lookups();
    res.diag.table_fills = cache_pool.fills();
  }

  {
    util::ScopedPhase reduce(res.phases, phase::kReduce);
    res.grid.fill_parallel(0.0f, P);
    reduce_replicas(res.grid, replicas, P);
  }
  return res;
}

}  // namespace stkde::core
