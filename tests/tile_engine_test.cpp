// PB-TILE: the tile-major scatter engine and its invariant-table cache.
//
// The engine is a reorganization of PB-SYM's arithmetic — tile-major
// traversal, Morton-sorted points, offset-keyed table sharing — so the
// keystone assertions are equivalences: tile order vs arrival order at
// float-reordering tolerance, and cache-served tables vs PB-SYM's per-point
// fills at 1e-5 for every kernel when the data sits on a sub-voxel lattice,
// so most lookups hit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/detail/common.hpp"
#include "core/detail/tile_scatter.hpp"
#include "helpers.hpp"
#include "partition/tile_order.hpp"
#include "util/rng.hpp"

namespace stkde {
namespace {

using testing::TinyInstance;
using testing::make_tiny;

double rel_tolerance(const DensityGrid& ref, double rel) {
  return rel * static_cast<double>(std::max(ref.max_value(), 0.0f)) + 1e-12;
}

// --- Morton keys and the tiling ---------------------------------------------

TEST(TileOrder, MortonInterleavesBits) {
  EXPECT_EQ(morton2(0, 0), 0u);
  EXPECT_EQ(morton2(1, 0), 1u);
  EXPECT_EQ(morton2(0, 1), 2u);
  EXPECT_EQ(morton2(1, 1), 3u);
  EXPECT_EQ(morton2(2, 1), 6u);
  EXPECT_EQ(morton2(3, 3), 15u);
  EXPECT_EQ(morton2(0xffffu, 0), 0x55555555u);
  EXPECT_EQ(morton2(0, 0xffffu), 0xaaaaaaaau);
}

// Static-analysis regression (docs/ANALYSIS.md): the Morton/bias math was
// flagged as a signed-shift-UB suspect. It is UB-free by construction —
// spread_bits16 works in uint32, biased16 biases through int64 before the
// narrowing — and this test drives the full extreme-input envelope so the
// UBSan CI job (-fsanitize=undefined, non-recovering) proves it stays
// that way. Expected values pin today's clamp-and-interleave semantics.
TEST(TileOrder, ScatterKeyExtremeCoordinatesAreUbFreeAndOrdered) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  // Both coordinate signs saturate order-preservingly at the 16-bit bias
  // rails instead of wrapping.
  const auto lo = scatter_order_key(Voxel{kMin, kMin, kMin});
  const auto hi = scatter_order_key(Voxel{kMax, kMax, kMax});
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, (std::uint64_t{0xffffffffu} << 16) | 0xffffu);
  EXPECT_LT(lo, hi);
  // The bias rails themselves: -0x8000 maps to 0, 0x7fff to 0xffff.
  EXPECT_EQ(scatter_order_key(Voxel{-0x8000, -0x8000, -0x8000}), 0u);
  EXPECT_EQ(scatter_order_key(Voxel{0x7fff, 0x7fff, 0x7fff}), hi);
  // Monotone in each axis across the sign boundary (the clamped-voxel
  // case recovery replays hit: coordinates slightly below 0).
  EXPECT_LT(scatter_order_key(Voxel{-1, 0, 0}), scatter_order_key(Voxel{0, 0, 0}));
  EXPECT_LT(scatter_order_key(Voxel{0, -1, 0}), scatter_order_key(Voxel{0, 0, 0}));
  EXPECT_LT(scatter_order_key(Voxel{0, 0, -1}), scatter_order_key(Voxel{0, 0, 0}));
  // Full-width interleave stays inside 32 bits before the t-shift: the
  // top Morton bit is y's bit 15 at position 31, never the sign bit of
  // anything signed.
  EXPECT_EQ(morton2(0xffffu, 0xffffu), 0xffffffffu);
}

TEST(TileOrder, ScatterKeyOrdersNearbyVoxelsTogether) {
  // Z-order locality: the key distance of adjacent voxels is smaller than
  // that of far-apart ones at matching t.
  const auto a = scatter_order_key(Voxel{10, 10, 5});
  const auto b = scatter_order_key(Voxel{11, 10, 5});
  const auto c = scatter_order_key(Voxel{200, 300, 5});
  EXPECT_LT(a < b ? b - a : a - b, a < c ? c - a : a - c);
  // t is the tiebreak within a column.
  EXPECT_LT(scatter_order_key(Voxel{10, 10, 5}),
            scatter_order_key(Voxel{10, 10, 6}));
}

TEST(TileOrder, TileDecompositionRespectsByteBudget) {
  const GridDims dims{64, 48, 16};
  const std::int64_t budget = 32 * 1024;
  const Decomposition tiles = tile_decomposition(dims, budget, sizeof(float));
  EXPECT_EQ(tiles.c(), 1) << "temporal axis must stay unsplit";
  for (std::int64_t v = 0; v < tiles.count(); ++v) {
    const Extent3 sub = tiles.subdomain(v);
    EXPECT_LE(sub.volume() * static_cast<std::int64_t>(sizeof(float)), budget)
        << "tile " << v << " exceeds the L2 budget";
  }
  // A budget below one spatial column degrades to 1-column tiles, not zero.
  const Decomposition fine = tile_decomposition(dims, 1, sizeof(float));
  EXPECT_EQ(fine.a(), dims.gx);
  EXPECT_EQ(fine.b(), dims.gy);
}

TEST(TileOrder, TileDecompositionBudgetsThePaddedRowStride) {
  // Regression: PB-TILE allocates its grid with RowPad::kCacheLine, so a
  // column occupies row_stride() elements, not gt. Budgeting the packed gt
  // silently oversized tiles — here gt=3 floats (12 B) pads to 16 (64 B),
  // a 5.3x understatement of every column.
  const GridDims dims{64, 48, 3};
  const std::int64_t budget = 32 * 1024;
  DensityGrid grid;
  grid.allocate(Extent3::whole(dims), RowPad::kCacheLine);
  ASSERT_TRUE(grid.padded());
  const Decomposition tiles =
      tile_decomposition(dims, budget, sizeof(float), grid.row_stride());
  for (std::int64_t v = 0; v < tiles.count(); ++v) {
    const Extent3 sub = tiles.subdomain(v);
    const std::int64_t tile_bytes =
        static_cast<std::int64_t>(sub.nx()) * sub.ny() * grid.row_stride() *
        static_cast<std::int64_t>(sizeof(float));
    EXPECT_LE(tile_bytes, budget) << "tile " << v << " exceeds the L2 budget";
  }
  // The packed-stride tiling (the old behaviour) demonstrably blows the
  // budget on this grid — the fix must produce a strictly finer tiling.
  const Decomposition packed = tile_decomposition(dims, budget, sizeof(float));
  const Extent3 sub0 = packed.subdomain(std::int64_t{0});
  EXPECT_GT(static_cast<std::int64_t>(sub0.nx()) * sub0.ny() *
                grid.row_stride() * static_cast<std::int64_t>(sizeof(float)),
            budget)
      << "test instance no longer demonstrates the padded-stride bug";
  EXPECT_GT(tiles.count(), packed.count());
}

TEST(TileOrder, BinsAreMortonSortedAndCoverAllPoints) {
  TinyInstance t = make_tiny(150, 3, 2);
  const VoxelMapper map(t.domain);
  const Decomposition tiles = tile_decomposition(map.dims(), 4096, 4);
  const PointBins bins =
      tile_major_bins(t.points, map, tiles, 3, 2, TileBinRule::kOwner);
  EXPECT_EQ(bins.total_entries, t.points.size());
  std::size_t seen = 0;
  for (const auto& bin : bins.bins) {
    seen += bin.size();
    for (std::size_t i = 1; i < bin.size(); ++i)
      EXPECT_LE(scatter_order_key(map.voxel_of(t.points[bin[i - 1]])),
                scatter_order_key(map.voxel_of(t.points[bin[i]])));
  }
  EXPECT_EQ(seen, t.points.size());
}

// --- Engine equivalences ----------------------------------------------------

TEST(TileEngine, TileOrderMatchesArrivalOrder) {
  // The tentpole equivalence: PB-TILE (exact cache) is a pure reordering of
  // PB-SYM's per-point scatter, so the grids agree to float-reorder noise —
  // across tile sizes, including degenerate single-column tiles.
  TinyInstance t = make_tiny(200, 4, 2);
  const Result sym = estimate(t.points, t.domain, t.params, Algorithm::kPBSym);
  const double tol = rel_tolerance(sym.grid, 1e-5);
  for (const std::int64_t tile_bytes : {std::int64_t{1} << 20, std::int64_t{4096},
                                        std::int64_t{1}}) {
    t.params.tile.tile_bytes = tile_bytes;
    const Result tile =
        estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
    EXPECT_LE(tile.grid.max_abs_diff(sym.grid), tol)
        << "tile_bytes=" << tile_bytes;
    EXPECT_GT(tile.diag.table_lookups, 0);
    EXPECT_GE(tile.diag.table_lookups, tile.diag.table_fills);
    EXPECT_GE(tile.diag.replication_factor, 1.0);
  }
}

class TileCacheKernelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TileCacheKernelTest, CachedTablesMatchPBSymOnLatticeData) {
  // With events on an S=4 sub-voxel lattice every hit reuses a table filled
  // at the bitwise-identical offset, so PB-TILE agrees with PB-SYM's
  // per-point fills within 1e-5 for every kernel.
  TinyInstance t = make_tiny(150, 4, 2);
  t.params.kernel = kernels::kernel_by_name(GetParam());
  t.points = data::snap_to_lattice(t.points, t.domain, 4);
  const Result cached =
      estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  // Lattice data has at most 16 distinct offsets: the cache must actually
  // hit, and lane stats must be accumulated per fill, not per lookup.
  EXPECT_GT(cached.diag.table_cache_hit_rate(), 0.5);
  EXPECT_EQ(cached.diag.table_cells,
            cached.diag.table_fills * 9LL * 9LL);  // (2*4+1)^2 per fill
  const Result sym = estimate(t.points, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_LE(cached.grid.max_abs_diff(sym.grid), rel_tolerance(sym.grid, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, TileCacheKernelTest,
    ::testing::Values("epanechnikov", "as-printed", "uniform", "triangular",
                      "quartic", "gaussian-truncated"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string s = info.param;
      for (auto& c : s)
        if (c == '-') c = '_';
      return s;
    });

TEST(TileEngine, OutOfLatticeOffsetsMatchPBSym) {
  // Points outside the domain clamp to border voxels, putting their offsets
  // outside [0, 1]; the cache keys those offsets like any other, so the
  // tables it serves must still match PB-SYM's per-point fills.
  TinyInstance t = make_tiny(1, 3, 2);
  t.points = {Point{-1.7, 10.0, 8.0}, Point{25.3, -2.2, 8.0},
              Point{12.0, 21.8, 17.3}, Point{12.0, 10.0, -0.4}};
  const Result sym = estimate(t.points, t.domain, t.params, Algorithm::kPBSym);
  const Result cached =
      estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  EXPECT_LE(cached.grid.max_abs_diff(sym.grid), rel_tolerance(sym.grid, 1e-5));
}

TEST(TileCache, NegativeZeroOffsetsShareTheExactKey) {
  // Regression: the cache's keys bit_cast the raw offsets, and a
  // voxel-boundary point can land on fx = -0.0 (e.g. (p.x - x0)/sres
  // underflowing to negative zero). -0.0 and +0.0 produce bitwise-identical
  // tables, so they must share one slot — the old keys split them.
  constexpr std::int32_t Hs = 3;
  kernels::SpatialTableCache cache(Hs);
  const DomainSpec dom{0.0, 0.0, 0.0, 32.0, 32.0, 8.0, 2.0, 1.0};
  const VoxelMapper map(dom);
  const kernels::EpanechnikovKernel k;
  // (p.x - 0)/2 underflows the smallest negative denormal to -0.0; the
  // voxel still clamps to cell 0, so fx == -0.0 while py's fx == +0.0.
  const Point neg{-std::numeric_limits<double>::denorm_min(), 5.0, 4.0};
  const Point pos{0.0, 5.0, 4.0};
  ASSERT_EQ(map.voxel_of(neg).x, map.voxel_of(pos).x);
  int fills = cache.lookup(k, map, pos, 3.0, Hs).filled ? 1 : 0;
  const auto second = cache.lookup(k, map, neg, 3.0, Hs);
  fills += second.filled ? 1 : 0;
  EXPECT_FALSE(second.filled) << "-0.0 offset missed the +0.0 table";
  EXPECT_EQ(fills, 1);
}

// --- Cache growth ------------------------------------------------------------
//
// On a unit-resolution domain at the origin, a point at voxel (cx, cy) plus a
// dyadic offset (i/q, j/q) keys the cache exactly on (i/q, j/q), so a q x q
// lattice is q^2 keys wherever its points fall.

const DomainSpec kCacheDomain{0.0, 0.0, 0.0, 64.0, 64.0, 8.0, 1.0, 1.0};

Point lattice_point(util::Xoshiro256& rng, std::uint64_t q) {
  const auto cell = [&] {
    return static_cast<double>(rng.below(64)) +
           static_cast<double>(rng.below(q)) / static_cast<double>(q);
  };
  return Point{cell(), cell(), 4.0};  // braced: evaluated left to right
}

std::vector<Point> lattice_feed(std::uint64_t q, std::size_t n,
                                std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Point> feed(n);
  for (Point& p : feed) p = lattice_point(rng, q);
  return feed;
}

TEST(TileCache, NeverRecurringOffsetsKeepSixteenSlots) {
  // Continuous coordinates never repeat an offset, so no evicted key ever
  // comes back: the cache stays at its first 16 slots and fills every time.
  constexpr std::int32_t Hs = 3;
  const VoxelMapper map(kCacheDomain);
  const kernels::EpanechnikovKernel k;
  kernels::SpatialTableCache cache(Hs);
  ASSERT_EQ(cache.slots(), 16u);
  util::Xoshiro256 rng(7);
  int fills = 0;
  constexpr int kLookups = 10000;
  for (int i = 0; i < kLookups; ++i) {
    const Point p{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0), 4.0};
    fills += cache.lookup(k, map, p, 3.0, Hs).filled ? 1 : 0;
  }
  EXPECT_EQ(fills, kLookups);
  EXPECT_EQ(cache.slots(), 16u);
}

TEST(TileCache, LatticeFeedsGrowUntilTheyHit) {
  // A 16-slot cache would hit ~75 %, 25 % and 6 % of these feeds; grown on
  // conflict misses it keeps nearly every key of each lattice.
  constexpr std::int32_t Hs = 3;
  const VoxelMapper map(kCacheDomain);
  const kernels::EpanechnikovKernel k;
  for (const std::uint64_t q : {4u, 8u, 16u}) {
    SCOPED_TRACE(std::to_string(q * q) + " keys");
    kernels::SpatialTableCache cache(Hs);
    constexpr int kLookups = 60000;
    int fills = 0;
    for (const Point& p : lattice_feed(q, kLookups, 11 + q))
      fills += cache.lookup(k, map, p, 3.0, Hs).filled ? 1 : 0;
    EXPECT_GT(cache.slots(), 16u);
    EXPECT_GE(1.0 - static_cast<double>(fills) / kLookups, 0.95);
  }
}

TEST(TileCache, HeldTablesHitRightAfterAGrow) {
  // At every grow in the first 3 000 lookups of a 64-key feed, the tables
  // held just before the grow still hit right after it, all but at most
  // one: the growing lookup fills its own key into the grown array, where
  // it displaces the table that shares its new slot. A probe that misses
  // changes the cache, so each probe runs on a fresh replay of the feed.
  constexpr std::int32_t Hs = 3;
  const VoxelMapper map(kCacheDomain);
  const kernels::EpanechnikovKernel k;
  const std::vector<Point> feed = lattice_feed(8, 3000, 5);
  const auto hits_after = [&](std::size_t end, const Point& key) {
    kernels::SpatialTableCache replay(Hs);
    for (std::size_t j = 0; j < end; ++j)
      (void)replay.lookup(k, map, feed[j], 3.0, Hs);
    return !replay.lookup(k, map, key, 3.0, Hs).filled;
  };
  std::vector<std::size_t> grows;
  kernels::SpatialTableCache cache(Hs);
  for (std::size_t i = 0; i < feed.size(); ++i) {
    const std::size_t before = cache.slots();
    (void)cache.lookup(k, map, feed[i], 3.0, Hs);
    if (cache.slots() != before) grows.push_back(i);
  }
  ASSERT_GE(grows.size(), 3u);
  int carried = 0;
  for (const std::size_t i : grows) {
    SCOPED_TRACE("grow at lookup " + std::to_string(i));
    int held = 0, missed = 0;
    for (std::uint64_t key = 0; key < 64; ++key) {
      const Point p{static_cast<double>(key % 8) / 8.0,
                    static_cast<double>(key / 8) / 8.0, 4.0};
      if (!hits_after(i, p)) continue;  // not held before the grow
      ++held;
      if (!hits_after(i + 1, p)) ++missed;
    }
    EXPECT_GT(held, 0);
    EXPECT_LE(missed, 1);
    carried += held - missed;
  }
  EXPECT_GE(carried, 30);
}

TEST(TileCache, SlotsStopAtTheByteBudget) {
  // kBudgetBytes over one (2Hs+1)^2 table's bytes, clamped to
  // [16, 65 536]: a feed of 4 096 keys keeps conflicting until the cache
  // reaches that count, and it never grows past it.
  const kernels::EpanechnikovKernel k;
  const VoxelMapper map(kCacheDomain);
  const std::vector<std::pair<std::int32_t, std::size_t>> caps = {
      {1, 65536}, {3, 32263}, {8, 6875}, {24, 867}};
  for (const auto& [Hs, cap] : caps) {
    SCOPED_TRACE("Hs=" + std::to_string(Hs));
    kernels::SpatialTableCache cache(Hs);
    util::Xoshiro256 rng(static_cast<std::uint64_t>(Hs));
    std::size_t peak = 0;
    int after_cap = 0;
    for (int i = 0; i < 400000 && after_cap < 2000; ++i) {
      (void)cache.lookup(k, map, lattice_point(rng, 64),
                         static_cast<double>(Hs), Hs);
      peak = std::max(peak, cache.slots());
      if (cache.slots() == cap) ++after_cap;
    }
    EXPECT_EQ(peak, cap);
    EXPECT_EQ(cache.slots(), cap);
  }
}

TEST(TileEngine, ExactCacheHitsOnLatticeData) {
  // The exact-keyed cache hits when data is recorded at fixed resolution:
  // identical offsets have identical bit patterns.
  TinyInstance t = make_tiny(200, 4, 2);
  t.points = data::snap_to_lattice(t.points, t.domain, 4);
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  EXPECT_GT(r.diag.table_cache_hit_rate(), 0.5);
  EXPECT_LT(r.diag.table_fills, r.diag.table_lookups / 2);
}

// Every strategy that stamps through the table cache reports the same
// counts the same way, at two threads: a lookup per stamp, a fill per
// computed table, and each computed table's (2Hs+1)^2 lanes once.
class CachedStrategyTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(CachedStrategyTest, DiagnosticsAreConsistent) {
  TinyInstance t = make_tiny(120, 4, 2);
  t.params.threads = 2;
  t.params.tile.threads = 2;
  const Result r = estimate(t.points, t.domain, t.params, GetParam());
  EXPECT_EQ(r.diag.algorithm, to_string(GetParam()));
  if (GetParam() != Algorithm::kPBSymDR) {
    EXPECT_GT(r.diag.subdomains, 0);
  }
  const std::int64_t side =
      2 * t.domain.spatial_bandwidth_voxels(t.params.hs) + 1;
  EXPECT_EQ(r.diag.table_cells, r.diag.table_fills * side * side);
  EXPECT_GE(r.diag.table_cells, r.diag.span_cells);
  EXPECT_GE(r.diag.span_cells, r.diag.table_nonzero);
  EXPECT_GT(r.diag.table_nonzero, 0);
  EXPECT_GE(r.diag.table_lookups, r.diag.table_fills);
  EXPECT_GT(r.diag.table_fills, 0);
  const double hr = r.diag.table_cache_hit_rate();
  EXPECT_GE(hr, 0.0);
  EXPECT_LE(hr, 1.0);
}

// Each worker's cache starts at 16 slots and grows at most to the byte
// budget's count, 21 620 slots at Hs = 4; the run reports their sum.
TEST_P(CachedStrategyTest, ReportsItsWorkersTableSlots) {
  TinyInstance t = make_tiny(120, 4, 2);
  t.params.threads = 2;
  t.params.tile.threads = 2;
  const Result r = estimate(t.points, t.domain, t.params, GetParam());
  EXPECT_GE(r.diag.table_slots, 2 * 16);
  EXPECT_LE(r.diag.table_slots, 2 * 21620);
}

INSTANTIATE_TEST_SUITE_P(
    SevenStrategies, CachedStrategyTest,
    ::testing::Values(Algorithm::kPBTile, Algorithm::kPBSymDR,
                      Algorithm::kPBSymDD, Algorithm::kPBSymPD,
                      Algorithm::kPBSymPDSched, Algorithm::kPBSymPDRep,
                      Algorithm::kPBSymPDSchedRep),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      std::string s = to_string(info.param);
      for (auto& c : s)
        if (c == '-') c = '_';
      return s;
    });

}  // namespace
}  // namespace stkde
