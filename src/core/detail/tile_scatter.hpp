#pragma once
/// \file tile_scatter.hpp
/// The PB-TILE scatter engine (docs/SCATTER_CORE.md): tile-major,
/// Morton-sorted batch scatter with a shared invariant-table cache.
///
/// PB-SYM made the per-voxel work a pure FMA; what remains on large batches
/// is the memory hierarchy — arrival-order scatter walks the grid randomly,
/// and every point pays a full O(Hs²) spatial-table refill. The engine
/// attacks both:
///  1. the grid is partitioned into L2-sized spatial tiles
///     (partition::tile_decomposition) and walked tile by tile, every
///     overlapping cylinder stamping its tile-clipped part while the tile
///     is resident;
///  2. within a tile, points are visited in Morton order
///     (partition::tile_major_bins), so consecutive cylinders overlap;
///  3. spatial tables are served by a SpatialTableCache keyed on sub-voxel
///     offsets (kernels/table_cache.hpp) — a point revisited by its next
///     tile, or any co-located point, reuses the table instead of refilling.
///
/// With TileEngineConfig::table_quant == 0 (the default) the cache keys on
/// exact offsets and the engine is a pure reordering of PB-SYM's arithmetic
/// (same tables, float accumulation order permuted). Quantized mode trades
/// a bounded kernel-argument perturbation (< sres·√2/(Q·hs)) for hits on
/// approximately co-located data.
///
/// The parallel walk (scatter_tile_major_parallel) runs the tiles on the
/// caller's sched::ThreadPool under one of two conflict-free schedules
/// picked by plan_tile_schedule (recorded in Result::diag.tile_schedule):
///  - parity waves: owner-binned tiles at least 2Hs wide per spatial axis
///    never write the same voxel when they agree on (a, b) parity, so the
///    four (a%2, b%2) classes run as four synchronization-free waves — the
///    PD rule the streaming engine already exercises. Tiles sized from
///    tile_bytes can be narrower than 2Hs; the scheduling decomposition is
///    then re-clamped (Decomposition::clamped).
///  - halo buffers: when re-clamping would leave too few tiles per wave to
///    feed the workers, the byte-budget tiling is kept and tiles
///    owner-compute into private halo buffers (tile expanded by Hs/Ht),
///    folded back into the grid via accumulate_buffer — the PD-REP path.
///    Scatter and fold-back are pipelined per strided wave (stride sized so
///    same-wave halo footprints are disjoint), bounding peak halo memory to
///    one wave's buffers.
/// Both schedules are bitwise deterministic with the exact (quant == 0)
/// cache: wave order is fixed, within a wave writers touch disjoint voxels,
/// and within a tile the Morton order fixes the accumulation order. (The
/// quantized cache's first-arrival representatives depend on the dynamic
/// tile-to-worker assignment, so quantized parallel runs vary within the
/// documented 1/Q error bound.)

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/detail/scatter.hpp"
#include "grid/reduction.hpp"
#include "kernels/table_cache.hpp"
#include "partition/tile_order.hpp"
#include "sched/coloring.hpp"
#include "sched/stencil_graph.hpp"
#include "sched/thread_pool.hpp"

namespace stkde::core::detail {

/// How an engine pass walked its tiles (Result::diag.tile_schedule).
enum class TileSchedule {
  kSerial,      ///< one thread, intersection bins, tile-clipped stamps
  kParityWave,  ///< owner bins, four (a,b)-parity waves, unclipped stamps
  kHaloBuffer,  ///< owner bins, private halo buffers + strided fold-back
};

[[nodiscard]] inline const char* to_string(TileSchedule s) {
  switch (s) {
    case TileSchedule::kSerial: return "serial";
    case TileSchedule::kParityWave: return "parity-wave";
    case TileSchedule::kHaloBuffer: return "halo-buffer";
  }
  return "?";
}

/// What one engine pass did (feeds Result::diag and the streaming stats).
struct TileScatterStats {
  std::int64_t lookups = 0;      ///< table-cache lookups
  std::int64_t fills = 0;        ///< table-cache misses (tables computed)
  LaneStats lanes;               ///< accumulated on fills only
  std::int64_t waves = 0;            ///< wave barriers executed (0 = serial)
  std::uint64_t halo_bytes = 0;      ///< peak halo-buffer memory (kHaloBuffer)
  TileSchedule schedule = TileSchedule::kSerial;
  int threads = 1;

  [[nodiscard]] double hit_rate() const {
    return lookups > 0
               ? 1.0 - static_cast<double>(fills) / static_cast<double>(lookups)
               : 0.0;
  }
};

/// A resolved traversal: the tiling to bin onto and the schedule to run.
struct TilePlan {
  Decomposition tiles;
  TileSchedule schedule;
  int threads;

  /// The binning rule the schedule consumes: the serial engine stamps
  /// tile-clipped (every tile its cylinder intersects), the parallel
  /// schedules are owner-computes.
  [[nodiscard]] TileBinRule bin_rule() const {
    return schedule == TileSchedule::kSerial ? TileBinRule::kIntersection
                                             : TileBinRule::kOwner;
  }
};

/// Pick the tiling + schedule for a run. \p row_stride_elems is the target
/// grid's DenseGrid3::row_stride() (the padded-stride budget fix); \p
/// threads is the resolved worker count (<= 1 selects the serial engine).
inline TilePlan plan_tile_schedule(const GridDims& dims,
                                   std::int64_t row_stride_elems,
                                   std::size_t value_size,
                                   const TileParams& cfg, int threads,
                                   std::int32_t Hs, std::int32_t Ht) {
  Decomposition tiles =
      tile_decomposition(dims, cfg.tile_bytes, value_size, row_stride_elems);
  if (threads <= 1) return TilePlan{std::move(tiles), TileSchedule::kSerial, 1};
  if (cfg.waves == TileWaveMode::kHalo)
    return TilePlan{std::move(tiles), TileSchedule::kHaloBuffer, threads};
  // Parity waves are conflict-free iff same-parity tiles can never stamp the
  // same voxel: owner stamps reach Hs beyond the tile, so every spatial tile
  // width must be >= 2Hs (the PD rule; the temporal axis is unsplit).
  if (tiles.min_width_x() >= 2 * Hs && tiles.min_width_y() >= 2 * Hs)
    return TilePlan{std::move(tiles), TileSchedule::kParityWave, threads};
  Decomposition clamped = Decomposition::clamped(
      dims, DecompRequest{tiles.a(), tiles.b(), 1}, Hs, Ht);
  // Re-clamping trades tile-size locality for wave safety; accept it while
  // each of the four waves still has a tile per worker — the smallest
  // parity class holds floor(a/2) * floor(b/2) tiles — otherwise keep the
  // narrow byte-budget tiles and pay for private halo buffers instead.
  const std::int64_t min_wave_tiles =
      static_cast<std::int64_t>(clamped.a() / 2) * (clamped.b() / 2);
  if (cfg.waves == TileWaveMode::kParity ||
      min_wave_tiles >= static_cast<std::int64_t>(threads))
    return TilePlan{std::move(clamped), TileSchedule::kParityWave, threads};
  return TilePlan{std::move(tiles), TileSchedule::kHaloBuffer, threads};
}

/// Scatter \p pts into \p grid tile-major over a prebuilt ordering.
/// \p tiles must partition the grid and \p bins must be intersection-binned
/// onto it (tile_major_bins with TileBinRule::kIntersection): each voxel of
/// a cylinder belongs to exactly one tile, so the union of tile-clipped
/// stamps equals the PB-SYM stamp. \p cfg is the caller's Params::tile;
/// the engine reads the traversal/cache knobs (pad_rows concerns only the
/// caller's grid allocation).
template <kernels::SeparableKernel K, typename T>
TileScatterStats scatter_tile_major(DenseGrid3<T>& grid, const Extent3& clip,
                                    const VoxelMapper& map, const K& k,
                                    const PointSet& pts, double hs, double ht,
                                    std::int32_t Hs, std::int32_t Ht,
                                    double scale, const Decomposition& tiles,
                                    const PointBins& bins,
                                    const TileParams& cfg) {
  TileScatterStats stats;
  kernels::SpatialTableCache cache(
      kernels::TableCacheConfig{cfg.table_quant, cfg.cache_bytes}, Hs);
  kernels::TemporalInvariant kt;
  const std::int64_t nsub = tiles.count();
  for (std::int64_t v = 0; v < nsub; ++v) {
    const auto& bin = bins.bins[static_cast<std::size_t>(v)];
    if (bin.empty()) continue;
    const Extent3 tclip = tiles.subdomain(v).intersect(clip);
    if (tclip.empty()) continue;
    // The temporal table is O(Ht) to fill — not worth caching.
    for (const std::uint32_t idx : bin)
      stats.lanes.count(scatter_cached(grid, tclip, map, k, pts[idx], hs, ht,
                                       Hs, Ht, scale, cache, kt));
  }
  stats.lookups = cache.lookups();
  stats.fills = cache.fills();
  return stats;
}

/// Parallel tile walk over a plan from plan_tile_schedule, on \p pool
/// (plan.threads workers). \p bins must be owner-binned onto plan.tiles
/// (tile_major_bins with plan.bin_rule()). Each wave is one
/// ThreadPool::parallel_for, whose dynamic schedule gives the tile-to-
/// worker assignment; each tile leases a table cache from a
/// kernels::TableCachePool and a private temporal invariant.
template <kernels::SeparableKernel K, typename T>
TileScatterStats scatter_tile_major_parallel(
    DenseGrid3<T>& grid, const Extent3& clip, const VoxelMapper& map,
    const K& k, const PointSet& pts, double hs, double ht, std::int32_t Hs,
    std::int32_t Ht, double scale, const TilePlan& plan, const PointBins& bins,
    const TileParams& cfg, sched::ThreadPool& pool) {
  TileScatterStats stats;
  stats.schedule = plan.schedule;
  stats.threads = plan.threads;
  const Decomposition& tiles = plan.tiles;
  const std::int64_t nsub = tiles.count();
  kernels::TableCachePool cache_pool(
      kernels::TableCacheConfig{cfg.table_quant, cfg.cache_bytes}, Hs);
  std::vector<LaneStats> lanes(static_cast<std::size_t>(nsub));

  // Tile v's owner-computed stamp into `target`, clipped to `tclip` (the
  // full clip for parity waves, the halo extent for buffers).
  auto scatter_tile = [&](DenseGrid3<T>& target, const Extent3& tclip,
                          std::size_t v) {
    auto cache = cache_pool.acquire();
    kernels::TemporalInvariant kt;
    LaneStats ls;
    for (const std::uint32_t idx : bins.bins[v])
      ls.count(scatter_cached(target, tclip, map, k, pts[idx], hs, ht, Hs, Ht,
                              scale, *cache, kt));
    lanes[v] = ls;
  };

  if (plan.schedule == TileSchedule::kParityWave) {
    // Four (a, b)-parity waves over the subdomain conflict graph; c is
    // always 1, so parity_coloring only ever emits the even colors.
    const sched::Coloring col =
        sched::parity_coloring(sched::StencilGraph::of(tiles));
    std::vector<std::vector<std::size_t>> waves(
        static_cast<std::size_t>(col.num_colors > 0 ? col.num_colors : 1));
    for (std::size_t v = 0; v < col.size(); ++v)
      if (!bins.bins[v].empty())
        waves[static_cast<std::size_t>(col.color[v])].push_back(v);
    for (const auto& wave : waves) {
      if (wave.empty()) continue;
      ++stats.waves;
      pool.parallel_for(
          static_cast<std::int64_t>(wave.size()), [&](std::int64_t i) {
            scatter_tile(grid, clip, wave[static_cast<std::size_t>(i)]);
          });
    }
  } else {
    // Owner-computes with halo buffers, pipelined per stride wave: a wave's
    // tiles scatter into private buffers (dependency-free), then fold back
    // via accumulate_buffer, then the buffers are freed before the next
    // wave starts — so peak halo memory is one wave's worth, not the whole
    // tiling's. Stride rule: same-wave tiles are >= (s-1) tiles apart, so
    // their halo boxes (tile ± Hs) are disjoint when
    // (s - 1) * min_tile_width >= 2Hs.
    std::vector<std::size_t> work;
    std::vector<Extent3> halos(static_cast<std::size_t>(nsub));
    std::vector<DenseGrid3<T>> buffers(static_cast<std::size_t>(nsub));
    const std::int32_t sx =
        2 + (2 * Hs - 1) / std::max(1, tiles.min_width_x());
    const std::int32_t sy =
        2 + (2 * Hs - 1) / std::max(1, tiles.min_width_y());
    for (std::int32_t wx = 0; wx < sx; ++wx)
      for (std::int32_t wy = 0; wy < sy; ++wy) {
        work.clear();
        std::uint64_t wave_bytes = 0;
        for (std::int64_t v = 0; v < nsub; ++v) {
          const auto sv = static_cast<std::size_t>(v);
          if (bins.bins[sv].empty()) continue;
          std::int32_t a = 0, b = 0, c = 0;
          tiles.coords(v, a, b, c);
          if (a % sx != wx || b % sy != wy) continue;
          halos[sv] = tiles.subdomain(v).expanded(Hs, Ht).intersect(clip);
          if (halos[sv].empty()) continue;
          wave_bytes += static_cast<std::uint64_t>(halos[sv].volume()) *
                        sizeof(T);
          work.push_back(sv);
        }
        if (work.empty()) continue;
        ++stats.waves;
        stats.halo_bytes = std::max(stats.halo_bytes, wave_bytes);
        const auto n = static_cast<std::int64_t>(work.size());
        pool.parallel_for(n, [&](std::int64_t i) {
          const std::size_t sv = work[static_cast<std::size_t>(i)];
          buffers[sv].allocate(halos[sv]);
          buffers[sv].fill(static_cast<T>(0));
          scatter_tile(buffers[sv], halos[sv], sv);
        });
        pool.parallel_for(n, [&](std::int64_t i) {
          const std::size_t sv = work[static_cast<std::size_t>(i)];
          accumulate_buffer(grid, buffers[sv]);
          buffers[sv] = DenseGrid3<T>{};  // free the halo memory promptly
        });
      }
  }

  stats.lanes = LaneStats::sum(lanes);
  stats.lookups = cache_pool.lookups();
  stats.fills = cache_pool.fills();
  return stats;
}

/// Convenience pass: build the tiling and the Morton-sorted intersection
/// bins, then scatter. The streaming engine's batch ingest uses this form.
template <kernels::SeparableKernel K, typename T>
TileScatterStats scatter_tile_major(DenseGrid3<T>& grid, const Extent3& clip,
                                    const VoxelMapper& map, const K& k,
                                    const PointSet& pts, double hs, double ht,
                                    std::int32_t Hs, std::int32_t Ht,
                                    double scale, const TileParams& cfg) {
  const Decomposition tiles = tile_decomposition(
      map.dims(), cfg.tile_bytes, sizeof(T), grid.row_stride());
  const PointBins bins =
      tile_major_bins(pts, map, tiles, Hs, Ht, TileBinRule::kIntersection);
  return scatter_tile_major(grid, clip, map, k, pts, hs, ht, Hs, Ht, scale,
                            tiles, bins, cfg);
}

}  // namespace stkde::core::detail
