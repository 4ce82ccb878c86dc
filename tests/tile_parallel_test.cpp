// Parallel PB-TILE: the parity-wave tile schedule
// (core/detail/tile_scatter.hpp) against the serial engine.
//
// The keystone assertions are equivalences — the parallel walk is a
// reordering of the same per-point arithmetic, so serial and parallel grids
// agree at the float-reorder tolerance for every kernel and thread count —
// plus bitwise determinism: wave order is fixed, writers inside a wave
// touch disjoint voxels, and the exact-keyed cache makes a hit
// indistinguishable from a fill, so repeated runs of one wave schedule
// agree bit for bit. This suite also runs under the STKDE_TSAN CI job:
// the parallel engine executes on sched::ThreadPool, so the sanitizer
// validates the wave barriers and the per-worker caches end to end.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/detail/common.hpp"
#include "core/detail/tile_scatter.hpp"
#include "core/incremental.hpp"
#include "helpers.hpp"
#include "partition/tile_order.hpp"

namespace stkde {
namespace {

using testing::TinyInstance;
using testing::make_tiny;

double rel_tolerance(const DensityGrid& ref, double rel) {
  return rel * static_cast<double>(std::max(ref.max_value(), 0.0f)) + 1e-12;
}

// Hs=3 on the 24x20x16 tiny grid: 4 KiB tiles give a 3x3 spatial tiling
// whose min widths (8, 6) satisfy the 2Hs parity rule directly.
TinyInstance parity_instance(std::size_t n, std::uint64_t seed = 1) {
  TinyInstance t = make_tiny(n, 3, 2, seed);
  t.params.tile.tile_bytes = 4096;
  return t;
}

// --- Schedule planning ------------------------------------------------------

TEST(TilePlan, PicksSerialParityAndHalo) {
  const GridDims dims{24, 20, 16};
  TileParams cfg;
  cfg.tile_bytes = 4096;
  // threads <= 1 is always the serial engine on the byte-budget tiling.
  const auto serial =
      core::detail::plan_tile_schedule(dims, 0, sizeof(float), cfg, 1, 3, 2);
  EXPECT_EQ(serial.schedule, core::detail::TileSchedule::kSerial);
  EXPECT_EQ(serial.bin_rule(), TileBinRule::kIntersection);
  EXPECT_EQ(serial.tiles.a(), 3);
  EXPECT_EQ(serial.tiles.b(), 3);
  // Wide-enough byte-budget tiles (3x3, min widths 8 and 6): parity waves
  // on the finest 2Hs-safe tiling, 4x3, which is finer than the budget's.
  const auto parity =
      core::detail::plan_tile_schedule(dims, 0, sizeof(float), cfg, 4, 3, 2);
  EXPECT_EQ(parity.schedule, core::detail::TileSchedule::kParityWave);
  EXPECT_EQ(parity.bin_rule(), TileBinRule::kOwner);
  EXPECT_EQ(parity.tiles.a(), 4);
  EXPECT_EQ(parity.tiles.b(), 3);
  EXPECT_GE(parity.tiles.min_width_x(), 6);
  EXPECT_GE(parity.tiles.min_width_y(), 6);
  // A 2Hs-safe but coarse budget tiling (one tile for the whole grid) also
  // runs parity waves on the finest safe tiling, not on its one tile.
  cfg.tile_bytes = std::int64_t{1} << 20;
  const auto coarse =
      core::detail::plan_tile_schedule(dims, 0, sizeof(float), cfg, 2, 3, 2);
  EXPECT_EQ(coarse.schedule, core::detail::TileSchedule::kParityWave);
  EXPECT_EQ(coarse.tiles.a(), 4);
  EXPECT_EQ(coarse.tiles.b(), 3);
  // One-column budget tiles violate the 2Hs rule, and the budget only
  // sizes the serial walk: every P > 1 runs parity waves on the safe 4x3
  // tiling, even where its smallest wave holds fewer tiles than workers
  // (P=4: floor(4/2)*floor(3/2) = 2 tiles).
  cfg.tile_bytes = 1;
  for (const int P : {2, 4}) {
    const auto narrow =
        core::detail::plan_tile_schedule(dims, 0, sizeof(float), cfg, P, 3, 2);
    EXPECT_EQ(narrow.schedule, core::detail::TileSchedule::kParityWave)
        << "P=" << P;
    EXPECT_EQ(narrow.tiles.a(), 4) << "P=" << P;
    EXPECT_EQ(narrow.tiles.b(), 3) << "P=" << P;
  }
}

// --- Parallel-vs-serial equivalence, all kernels ----------------------------

class TileParallelKernelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TileParallelKernelTest, ParallelMatchesSerialAcrossThreadCounts) {
  TinyInstance t = parity_instance(220);
  t.params.kernel = kernels::kernel_by_name(GetParam());
  const Result serial =
      estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  EXPECT_EQ(serial.diag.tile_schedule, "serial");
  const double tol = rel_tolerance(serial.grid, 1e-5);
  for (const int P : {1, 2, 4}) {
    t.params.tile.threads = P;
    const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
    EXPECT_LE(r.grid.max_abs_diff(serial.grid), tol) << "P=" << P;
    EXPECT_EQ(r.diag.tile_schedule, P == 1 ? "serial" : "parity-wave");
    EXPECT_EQ(r.diag.tile_threads, P);
    EXPECT_GT(r.diag.table_lookups, 0);
  }
  // A narrow budget (one grid column per tile, far below 2Hs) at P=4: the
  // same parity waves on the safe tiling, still at 1e-5.
  t.params.tile.threads = 4;
  t.params.tile.tile_bytes = 1;
  const Result narrow =
      estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  EXPECT_EQ(narrow.diag.tile_schedule, "parity-wave");
  EXPECT_LE(narrow.grid.max_abs_diff(serial.grid), tol);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, TileParallelKernelTest,
    ::testing::Values("epanechnikov", "as-printed", "uniform", "triangular",
                      "quartic", "gaussian-truncated"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string s = info.param;
      for (auto& c : s)
        if (c == '-') c = '_';
      return s;
    });

// --- Determinism ------------------------------------------------------------

TEST(TileParallel, WaveSchedulesAreBitwiseDeterministic) {
  // With the exact cache, a hit reuses a bitwise-identical table, so the
  // dynamic tile-to-worker assignment cannot leak into the result: repeated
  // P=4 runs of one wave schedule agree bit for bit.
  TinyInstance t = parity_instance(300);
  t.params.tile.threads = 4;
  const Result a = estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  const Result b = estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  ASSERT_EQ(a.diag.tile_schedule, "parity-wave");
  EXPECT_EQ(a.grid.max_abs_diff(b.grid), 0.0);

  t.params.tile.tile_bytes = 1;
  const Result c = estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  const Result d = estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  ASSERT_EQ(c.diag.tile_schedule, "parity-wave");
  EXPECT_EQ(c.grid.max_abs_diff(d.grid), 0.0);
  t.params.tile.threads = 1;
  const Result serial =
      estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  EXPECT_LE(c.grid.max_abs_diff(serial.grid),
            rel_tolerance(serial.grid, 1e-5));
}

// --- Replica buffers ---------------------------------------------------------

TEST(TileParallel, HotspotReplicaBuffersAreReported) {
  // Every point packed into one tile of the 4x3 parity tiling (x, y < 6
  // voxels): that tile holds all n = 200 points, above max(32, n/(2P)) =
  // 32 at P=4, so the pre-wave splits it across P replica tasks, each
  // writing a private halo buffer alive until the tile's wave folds it.
  TinyInstance t = parity_instance(1);
  t.points.clear();
  for (int i = 0; i < 200; ++i)
    t.points.push_back(Point{0.5 + (i % 5), 0.5 + (i / 5) % 5, 0.5 + i % 16});
  t.params.tile.threads = 4;
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  ASSERT_EQ(r.diag.tile_schedule, "parity-wave");
  EXPECT_GT(r.diag.extra_bytes, 0u);
  t.params.tile.threads = 1;
  const Result serial =
      estimate(t.points, t.domain, t.params, Algorithm::kPBTile);
  EXPECT_EQ(serial.diag.extra_bytes, 0u);
  EXPECT_LE(r.grid.max_abs_diff(serial.grid), rel_tolerance(serial.grid, 1e-5));
}

// --- Streaming reuse --------------------------------------------------------

TEST(TileParallel, ShardedStreamingIngestServesTablesFromTheCachePool) {
  // Streaming ingest runs the same tile engine and leases per-worker caches
  // from the engine's pool; the stats must see the probes, and the P=4
  // stream must still match a serial one. 4 KiB tiles are 2Hs-wide, so the
  // P=4 plan runs parity waves with several tiles per wave.
  TinyInstance t = parity_instance(160);
  core::StreamConfig serial_cfg;  // threads = 1
  core::StreamConfig sharded_cfg;
  sharded_cfg.threads = 4;
  core::IncrementalEstimator serial(t.domain, t.params, serial_cfg);
  core::IncrementalEstimator sharded(t.domain, t.params, sharded_cfg);
  serial.add(t.points);
  sharded.add(t.points);
  EXPECT_GT(sharded.stats().table_lookups, 0u);
  EXPECT_GE(sharded.stats().table_lookups, sharded.stats().table_fills);
  const DensityGrid a = serial.snapshot();
  const DensityGrid b = sharded.snapshot();
  EXPECT_LE(a.max_abs_diff(b), rel_tolerance(a, 1e-5));
}

}  // namespace
}  // namespace stkde
