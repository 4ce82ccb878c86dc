#pragma once
/// \file tile_scatter.hpp
/// The PB-TILE scatter engine (docs/SCATTER_CORE.md): tile-major,
/// Morton-sorted batch scatter with per-worker invariant-table caches.
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
/// The cache keys on exact offsets, so the engine is a pure reordering of
/// PB-SYM's arithmetic (same tables, float accumulation order permuted).
///
/// One entry point, scatter_tile_major, runs a plan from
/// plan_tile_schedule (recorded in Result::diag.tile_schedule) for PB-TILE
/// and for every streaming ingest batch. With one thread it walks the
/// byte-budget tiling serially; with P > 1 it runs the tiles on the caller's
/// sched::ThreadPool in parity waves: owner-binned tiles at least 2Hs wide
/// per spatial axis never write the same voxel when they agree on (a, b)
/// parity, so the four (a%2, b%2) classes run as four synchronization-free
/// waves (the PD rule, Algorithm 6). They run on the finest such tiling
/// (Decomposition::clamped), whose many small tiles balance the waves. A
/// pre-wave first splits hotspot tiles across replica tasks writing private
/// halo buffers (tile expanded by Hs/Ht), folded back in the tile's parity
/// slot via accumulate_buffer (PD-REP).
/// Every bin is stamped by stamp_bin through the calling worker's slot of a
/// caller-owned StampScratches, so a long-lived caller (the streaming
/// engine) keeps its caches warm across passes. Every schedule is bitwise
/// deterministic: wave order is fixed, within a wave writers touch disjoint
/// voxels, within a tile the Morton order fixes the accumulation order, and
/// a hit in any worker's cache reuses a bitwise-identical table.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/detail/scatter.hpp"
#include "grid/reduction.hpp"
#include "partition/tile_order.hpp"
#include "sched/coloring.hpp"
#include "sched/stencil_graph.hpp"
#include "sched/thread_pool.hpp"

namespace stkde::core::detail {

/// How an engine pass walked its tiles (Result::diag.tile_schedule).
enum class TileSchedule {
  kSerial,      ///< one thread, intersection bins, tile-clipped stamps
  kParityWave,  ///< owner bins, four (a,b)-parity waves, unclipped stamps
};

[[nodiscard]] inline const char* to_string(TileSchedule s) {
  switch (s) {
    case TileSchedule::kSerial: return "serial";
    case TileSchedule::kParityWave: return "parity-wave";
  }
  return "?";
}

/// How one engine pass was scheduled (feeds Result::diag and the
/// streaming stats; the table counts are in the StampScratches).
struct TileScatterStats {
  std::int64_t waves = 0;            ///< parity waves run (0 = serial)
  std::int64_t replica_tasks = 0;    ///< hotspot replica tasks (pre-wave)
  /// Bytes of the replica tasks' halo buffers, all alive from the pre-wave
  /// until their tile's wave folds them back.
  std::uint64_t replica_bytes = 0;
};

/// A resolved traversal: the tiling to bin onto and the schedule to run.
struct TilePlan {
  Decomposition tiles;
  TileSchedule schedule;
  int threads;

  /// The binning rule the schedule consumes: the serial engine stamps
  /// tile-clipped (every tile its cylinder intersects), the parity waves
  /// are owner-computes.
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
  if (threads <= 1)
    return TilePlan{tile_decomposition(dims, cfg.tile_bytes, value_size,
                                       row_stride_elems),
                    TileSchedule::kSerial, 1};
  // Parity waves are conflict-free iff same-parity tiles can never stamp the
  // same voxel: owner stamps reach Hs beyond the tile, so every spatial tile
  // width must be >= 2Hs (the PD rule; the temporal axis is unsplit). They
  // run on the finest such tiling: owner stamps are unclipped, so a smaller
  // tile costs no locality, and more tiles per wave balance the workers.
  return TilePlan{Decomposition::clamped(
                      dims, DecompRequest{dims.gx, dims.gy, 1}, Hs, Ht),
                  TileSchedule::kParityWave, threads};
}

namespace tile_walk {

/// The serial walk: \p bins are intersection-binned onto \p tiles, so each
/// voxel of a cylinder belongs to exactly one tile and the union of
/// tile-clipped stamps equals the PB-SYM stamp.
template <kernels::SeparableKernel K, typename T>
void serial(DenseGrid3<T>& grid, const Extent3& clip, const RunSetup& s,
            const K& k, const PointSet& pts, const Decomposition& tiles,
            const PointBins& bins, StampScratch& scratch) {
  const std::int64_t nsub = tiles.count();
  for (std::int64_t v = 0; v < nsub; ++v) {
    const auto& bin = bins.bins[static_cast<std::size_t>(v)];
    if (bin.empty()) continue;
    const Extent3 tclip = tiles.subdomain(v).intersect(clip);
    if (tclip.empty()) continue;
    stamp_bin(grid, tclip, s, k, pts, bin, scratch);
  }
}

/// The parallel walk over owner bins: the hotspot pre-wave, then four
/// parity waves, each one ThreadPool::parallel_for whose dynamic schedule
/// assigns tiles to workers.
template <kernels::SeparableKernel K, typename T>
TileScatterStats parallel(DenseGrid3<T>& grid, const Extent3& clip,
                          const RunSetup& s, const K& k, const PointSet& pts,
                          const TilePlan& plan, const PointBins& bins,
                          StampScratches& scratch, sched::ThreadPool& pool) {
  TileScatterStats stats;
  const Decomposition& tiles = plan.tiles;
  const auto nsub = static_cast<std::size_t>(tiles.count());

  // Points [lo, hi) of tile v's bin, owner-computed into `target` and
  // clipped to `tclip` (the full clip in place, the halo extent for
  // buffers), through the running worker's scratch.
  auto scatter_bin = [&](DenseGrid3<T>& target, const Extent3& tclip,
                         std::size_t v, std::size_t lo, std::size_t hi) {
    stamp_bin(target, tclip, s, k, pts,
              std::span<const std::uint32_t>(bins.bins[v]).subspan(lo, hi - lo),
              scratch.of(&pool));
  };

  // PD-REP pre-wave: a tile holding more than max(32, n/(2P)) points (a
  // hotspot of a clustered feed, which would serialize its wave) is split
  // across up to P replica tasks writing private halo buffers. Replicas
  // are dependency-free, so they all run before the parity waves; the
  // tile's parity slot folds its buffers back. The halo init and fold
  // cost a few point-equivalents, so splitting is cheap relative to the
  // imbalance it removes; the floor keeps near-empty tiles whole.
  const auto P = static_cast<std::size_t>(plan.threads);
  const std::size_t threshold =
      std::max<std::size_t>(32, pts.size() / (2 * P));
  struct Replica {
    std::size_t tile, rep, lo, hi;
  };
  std::vector<Replica> replicas;
  std::vector<Extent3> halos(nsub);
  std::vector<std::vector<DenseGrid3<T>>> buffers(nsub);
  for (std::size_t v = 0; v < nsub; ++v) {
    const std::size_t n = bins.bins[v].size();
    const std::size_t r = std::min(P, (n + threshold - 1) / threshold);
    if (r < 2) continue;
    halos[v] = tiles.subdomain(static_cast<std::int64_t>(v))
                   .expanded(s.Hs, s.Ht)
                   .intersect(clip);
    buffers[v].resize(r);
    stats.replica_bytes +=
        r * static_cast<std::uint64_t>(halos[v].volume()) * sizeof(T);
    const std::size_t chunk = (n + r - 1) / r;
    for (std::size_t rep = 0; rep < r; ++rep) {
      const std::size_t lo = std::min(n, rep * chunk);
      replicas.push_back(Replica{v, rep, lo, std::min(n, lo + chunk)});
    }
  }
  stats.replica_tasks = static_cast<std::int64_t>(replicas.size());
  pool.parallel_for(
      static_cast<std::int64_t>(replicas.size()), [&](std::int64_t i) {
        const Replica& rp = replicas[static_cast<std::size_t>(i)];
        DenseGrid3<T>& buf = buffers[rp.tile][rp.rep];
        buf.allocate(halos[rp.tile]);
        buf.fill(static_cast<T>(0));
        scatter_bin(buf, halos[rp.tile], rp.tile, rp.lo, rp.hi);
      });

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
          const std::size_t v = wave[static_cast<std::size_t>(i)];
          if (buffers[v].empty()) {
            scatter_bin(grid, clip, v, 0, bins.bins[v].size());
            return;
          }
          for (const auto& buf : buffers[v]) accumulate_buffer(grid, buf);
          buffers[v].clear();  // free the halo memory promptly
        });
  }
  return stats;
}

}  // namespace tile_walk

/// The tile engine's one entry point (PB-TILE and every streaming ingest
/// batch): scatter \p pts, with the bandwidths and scales of \p s, into
/// \p grid under \p plan from plan_tile_schedule (planned for s.Hs, the
/// widest bandwidth). \p bins must be binned onto plan.tiles by
/// tile_major_bins with plan.bin_rule() and s.Hs. Spatial tables and table
/// counts live in \p scratch, which the caller owns — one slot per worker
/// of \p pool, and slot 0 serves the serial walk: a caller that keeps it
/// across passes keeps its tables warm. \p pool runs the parity waves and
/// may be null for TileSchedule::kSerial.
template <kernels::SeparableKernel K, typename T>
TileScatterStats scatter_tile_major(DenseGrid3<T>& grid, const Extent3& clip,
                                    const RunSetup& s, const K& k,
                                    const PointSet& pts, const TilePlan& plan,
                                    const PointBins& bins,
                                    StampScratches& scratch,
                                    sched::ThreadPool* pool) {
  if (plan.schedule != TileSchedule::kSerial)
    return tile_walk::parallel(grid, clip, s, k, pts, plan, bins, scratch,
                               *pool);
  tile_walk::serial(grid, clip, s, k, pts, plan.tiles, bins,
                    scratch.of(nullptr));
  return {};
}

}  // namespace stkde::core::detail
