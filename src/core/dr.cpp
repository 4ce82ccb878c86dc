#include <algorithm>
#include <span>

#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "grid/reduction.hpp"
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
// stamps go through the shared cached stamp — spatial tables come from the
// worker's cache like DD/PD's instead of a fill per point. Chunk i always
// lands in replica i, so the worker that runs it does not matter.
Result run_pb_sym_dr(const PointSet& pts, const detail::RunSetup& s,
                     const Params& p) {
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
    const std::size_t n = idx.size();
    const std::size_t chunk = (n + static_cast<std::size_t>(P) - 1) /
                              static_cast<std::size_t>(P);
    detail::StampScratches scratch(s.Hs, P);
    detail::with_kernel(p.kernel, [&](const auto& k) {
      pool.parallel_for(P, [&](std::int64_t id) {
        const std::size_t lo = std::min(n, static_cast<std::size_t>(id) * chunk);
        detail::stamp_bin(replicas[static_cast<std::size_t>(id)], whole, s, k,
                          pts,
                          std::span(idx).subspan(lo, std::min(n - lo, chunk)),
                          scratch.of(&pool));
      });
    });
    scratch.lanes().store(res.diag);
  }

  {
    util::ScopedPhase reduce(res.phases, phase::kReduce);
    res.grid.fill_parallel(0.0f, pool);
    reduce_replicas(res.grid, replicas, pool);
  }
  return res;
}

}  // namespace stkde::core
