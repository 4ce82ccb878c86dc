#include <algorithm>

#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/tile_scatter.hpp"
#include "sched/thread_pool.hpp"

namespace stkde::core {

// PB-TILE: PB-SYM's arithmetic reorganized for the memory hierarchy. Points
// are binned onto L2-sized spatial tiles and Morton-sorted within each; the
// grid is walked tile by tile so a tile's rows stay resident while every
// overlapping cylinder stamps into it; spatial invariant tables are served
// from a sub-voxel-offset cache instead of being refilled per point. The
// cache keys on exact offsets, so this computes the identical tables PB-SYM
// would (float accumulation order permuted).
//
// With tile.threads != 1 the tile walk runs in parallel in the parity waves
// plan_tile_schedule lays over the finest PD-safe tiling, after a pre-wave
// that splits hotspot tiles across replica halo buffers; the schedule is
// recorded in Result::diag.tile_schedule and the replica buffers' bytes in
// Result::diag.extra_bytes. The streaming engine ingests every batch
// through the same entry point.
Result run_pb_tile(const PointSet& pts, const detail::RunSetup& s,
                   const Params& p) {
  const int P =
      p.tile.threads == 0 ? p.resolved_threads() : std::max(1, p.tile.threads);
  Result res;
  res.diag.algorithm = to_string(Algorithm::kPBTile);

  sched::ThreadPool pool(P);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(Extent3::whole(s.map.dims()), RowPad::kCacheLine);
    res.grid.fill_parallel(0.0f, pool);
  }

  // The scheduling decomposition budgets the grid's *allocated* row stride
  // (padded rows carry up to 15 extra floats per T-row).
  const detail::TilePlan plan = detail::plan_tile_schedule(
      s.map.dims(), res.grid.row_stride(), sizeof(float), p.tile, P, s.Hs,
      s.Ht);
  PointBins bins;
  {
    util::ScopedPhase bin(res.phases, phase::kBin);
    bins = tile_major_bins(pts, s.map, plan.tiles, s.Hs, s.Ht,
                           plan.bin_rule());
  }
  res.diag.decomposition = plan.tiles.to_string();
  res.diag.subdomains = plan.tiles.count();
  res.diag.replication_factor = bins.replication_factor(pts.size());
  res.diag.tile_schedule = detail::to_string(plan.schedule);
  res.diag.tile_threads = plan.threads;

  util::ScopedPhase compute(res.phases, phase::kCompute);
  detail::StampScratches scratch(s.Hs, P);
  detail::with_kernel(p.kernel, [&](const auto& k) {
    const detail::TileScatterStats st = detail::scatter_tile_major(
        res.grid, Extent3::whole(s.map.dims()), s, k, pts, plan, bins, scratch,
        &pool);
    res.diag.num_colors = static_cast<std::int32_t>(st.waves);
    res.diag.extra_bytes = st.replica_bytes;
  });
  scratch.store(res.diag);
  return res;
}

}  // namespace stkde::core
