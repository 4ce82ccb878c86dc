#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/detail/tile_scatter.hpp"
#include "core/estimator.hpp"
#include "data/generator.hpp"
#include "helpers.hpp"

namespace stkde::core {
namespace {

using stkde::testing::grid_tolerance;
using stkde::testing::make_tiny;

TEST(Incremental, SingleBatchMatchesBatchEstimate) {
  const auto t = make_tiny(150, 3, 2);
  IncrementalEstimator inc(t.domain, t.params);
  inc.add(t.points);
  const DensityGrid snap = inc.snapshot();
  const Result batch = estimate(t.points, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_LE(snap.max_abs_diff(batch.grid), grid_tolerance(batch.grid));
  EXPECT_EQ(inc.live_count(), t.points.size());
}

TEST(Incremental, MultipleBatchesMatchCombinedBatch) {
  const auto t = make_tiny(200, 3, 2);
  IncrementalEstimator inc(t.domain, t.params);
  const std::size_t half = t.points.size() / 2;
  inc.add(PointSet(t.points.begin(), t.points.begin() + half));
  inc.add(PointSet(t.points.begin() + half, t.points.end()));
  const Result batch = estimate(t.points, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_LE(inc.snapshot().max_abs_diff(batch.grid),
            grid_tolerance(batch.grid));
}

TEST(Incremental, RemoveUndoesAdd) {
  const auto t = make_tiny(100, 3, 2);
  IncrementalEstimator inc(t.domain, t.params);
  inc.add(t.points);
  inc.remove(t.points);
  EXPECT_EQ(inc.live_count(), 0u);
  // Raw sums cancel to float roundoff around zero.
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < inc.raw().size(); ++i)
    max_abs = std::max(max_abs, std::abs(inc.raw().data()[i]));
  EXPECT_LE(max_abs, 1e-5f);
  // Snapshot of an empty stream is exactly zero (n = 0 short-circuits).
  EXPECT_DOUBLE_EQ(inc.snapshot().sum(), 0.0);
}

TEST(Incremental, RemovalOfSubsetMatchesBatchOfRemainder) {
  const auto t = make_tiny(120, 3, 2);
  IncrementalEstimator inc(t.domain, t.params);
  inc.add(t.points);
  const PointSet gone(t.points.begin(), t.points.begin() + 40);
  inc.remove(gone);
  const PointSet kept(t.points.begin() + 40, t.points.end());
  const Result batch = estimate(kept, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_EQ(inc.live_count(), kept.size());
  // Cancellation noise is bounded by the *full* set's peak, not the
  // remainder's, so scale tolerance accordingly.
  const Result full = estimate(t.points, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_LE(inc.snapshot().max_abs_diff(batch.grid),
            3.0 * grid_tolerance(full.grid));
}

TEST(Incremental, SlidingWindowMatchesWindowBatch) {
  const auto t = make_tiny(1, 3, 2);
  // A stream ordered by time: event i at t = i * 0.1.
  PointSet stream;
  for (int i = 0; i < 160; ++i)
    stream.push_back(Point{2.0 + (i * 7) % 20, 2.0 + (i * 3) % 16,
                           i * 0.1});
  IncrementalEstimator inc(t.domain, t.params);
  const double window = 8.0;
  std::size_t fed = 0;
  const std::size_t chunk = 40;
  while (fed < stream.size()) {
    const std::size_t hi = std::min(stream.size(), fed + chunk);
    const PointSet batch(stream.begin() + fed, stream.begin() + hi);
    const double now = batch.back().t;
    inc.advance_window(batch, now - window);
    fed = hi;
  }
  // Reference: batch estimate over exactly the live window.
  PointSet live;
  const double cutoff = stream.back().t - window;
  for (const auto& p : stream)
    if (p.t >= cutoff) live.push_back(p);
  ASSERT_EQ(inc.live_count(), live.size());
  const Result batch = estimate(live, t.domain, t.params, Algorithm::kPBSym);
  const Result full = estimate(stream, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_LE(inc.snapshot().max_abs_diff(batch.grid),
            5.0 * grid_tolerance(full.grid));
}

// Regression for the sliding-window retirement bias: the old engine popped
// the arrival-order deque only while the *front* was expired, so a late
// (out-of-order) arrival sitting behind a newer event was never retired and
// biased the density permanently. The time-bucketed index retires by
// timestamp, not arrival position.
TEST(Incremental, OutOfOrderFeedFullyRetires) {
  const auto t = make_tiny(1, 3, 2);
  IncrementalEstimator inc(t.domain, t.params);
  // Deliver events with deliberately scrambled timestamps: each batch holds
  // a *newer* event before an *older* one, so the old deque's front check
  // stalls on the newer event and strands the late arrival behind it.
  PointSet all;
  for (int i = 0; i < 30; ++i) {
    const double late = 0.5 + 0.4 * i;   // out-of-order: older than `now`
    const double now = 8.0 + 0.2 * i;
    const PointSet batch{Point{4.0 + i % 12, 3.0 + i % 9, now},
                         Point{6.0 + i % 10, 5.0 + i % 7, late}};
    all.insert(all.end(), batch.begin(), batch.end());
    inc.advance_window(batch, 0.0);
  }
  ASSERT_EQ(inc.live_count(), all.size());
  // Slide the window past every event, late arrivals included.
  const std::size_t retired = inc.advance_window({}, 1e9);
  EXPECT_EQ(retired, all.size());
  EXPECT_EQ(inc.live_count(), 0u);
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < inc.raw().size(); ++i)
    max_abs = std::max(max_abs, std::abs(inc.raw().data()[i]));
  EXPECT_LE(max_abs, 1e-4f);
  EXPECT_DOUBLE_EQ(inc.snapshot().sum(), 0.0);
}

// The second face of the same bug: an incoming event already older than the
// cutoff was added and could never be removed. It must never be scattered.
TEST(Incremental, DeadOnArrivalEventsNeverEnterTheGrid) {
  const auto t = make_tiny(1, 3, 2);
  IncrementalEstimator inc(t.domain, t.params);
  const PointSet stale{Point{5.0, 5.0, 1.0}, Point{7.0, 6.0, 2.0}};
  const std::size_t retired = inc.advance_window(stale, 10.0);
  EXPECT_EQ(retired, stale.size());
  EXPECT_EQ(inc.live_count(), 0u);
  EXPECT_EQ(inc.stats().dead_on_arrival, stale.size());
  // Never scattered at all: the raw grid is still exactly zero.
  EXPECT_EQ(inc.raw().max_value(), 0.0f);
  EXPECT_DOUBLE_EQ(inc.raw().sum(), 0.0);
}

// A slide whose fresh scatter fails is discarded whole: nothing is retired
// or logged, so the window's watermark must not move either. Otherwise
// later events below the abandoned cutoff are quarantined as stale, and
// recover() would rebuild the old watermark from the WAL.
TEST(Incremental, FailedAdvanceKeepsTheWatermark) {
  DomainSpec dom;
  dom.gx = 64;
  dom.gy = 64;
  dom.gt = 40;
  Params params;
  params.hs = 3.0;
  params.ht = 2.0;
  StreamConfig cfg;
  cfg.threads = 2;
  IncrementalEstimator inc(dom, params, cfg);
  // One hot tile: the parity schedule splits it across replica buffers,
  // which a 1 KiB budget cannot hold.
  const PointSet hot(200, Point{30.5, 30.5, 20.5});
  {
    stkde::testing::ScopedMemoryBudget guard(1024);
    EXPECT_THROW(inc.advance_window(hot, 10.0), util::MemoryBudgetExceeded);
  }
  EXPECT_EQ(inc.stats().recoveries, 1u);
  EXPECT_EQ(inc.live_count(), 0u);
  EXPECT_EQ(inc.last_cutoff(), -std::numeric_limits<double>::infinity());

  inc.add({Point{10.5, 10.5, 5.5}});
  EXPECT_EQ(inc.live_count(), 1u);
  EXPECT_EQ(inc.stats().quarantined_stale, 0u);

  // Admission of the slide's own batch already used the new cutoff.
  inc.advance_window({Point{12.5, 12.5, 4.5}, Point{20.5, 20.5, 30.5}}, 10.0);
  EXPECT_EQ(inc.last_cutoff(), 10.0);
  EXPECT_EQ(inc.stats().quarantined_stale, 1u);
  EXPECT_EQ(inc.live_count(), 1u);  // 5.5 retired, 30.5 admitted
}

TEST(Incremental, RemoveTakesOneInstancePerRequest) {
  const auto t = make_tiny(1, 3, 2);
  IncrementalEstimator inc(t.domain, t.params);
  const Point p{5.0, 5.0, 4.0};
  inc.add(PointSet{p, p, p});
  EXPECT_EQ(inc.live_count(), 3u);
  // Two requests remove exactly two of the three duplicates.
  EXPECT_EQ(inc.remove(PointSet{p, p}), 2u);
  EXPECT_EQ(inc.live_count(), 1u);
  // The survivor still matches a one-point batch estimate.
  const Result batch = estimate(PointSet{p}, t.domain, t.params,
                                Algorithm::kPBSym);
  EXPECT_LE(inc.snapshot().max_abs_diff(batch.grid),
            3.0 * grid_tolerance(batch.grid));
}

TEST(Incremental, RemoveOfUntrackedEventIsANoOp) {
  const auto t = make_tiny(80, 3, 2);
  IncrementalEstimator inc(t.domain, t.params);
  inc.add(t.points);
  const DensityGrid before = inc.snapshot();
  // Never-added event: ignored instead of biasing the density negative.
  EXPECT_EQ(inc.remove(PointSet{Point{1.0, 1.0, 1.0}}), 0u);
  EXPECT_EQ(inc.stats().remove_misses, 1u);
  EXPECT_EQ(inc.live_count(), t.points.size());
  EXPECT_DOUBLE_EQ(inc.snapshot().max_abs_diff(before), 0.0);
}

// Every thread count and schedule of the shared tile engine must be
// numerically equivalent to the serial walk: same feed, snapshots within
// 1e-5 relative, for P in {1, 2, 4} over both schedules.
TEST(Incremental, ShardedIngestMatchesSerial) {
  const auto t = make_tiny(400, 3, 2);
  PointSet stream = t.points;
  std::sort(stream.begin(), stream.end(),
            [](const Point& a, const Point& b) { return a.t < b.t; });

  struct Engine {
    int threads;
    std::int64_t tile_bytes;
    detail::TileSchedule schedule;
  };
  // The default 1 MiB budget makes the whole tiny grid one 2Hs-safe tile,
  // so P > 1 runs parity waves on the finest safe tiling (4x3); the budget
  // only sizes the serial walk, so one-column budget tiles, narrower than
  // 2Hs, run the same parity waves at P = 4.
  const std::vector<Engine> engines = {
      {1, TileParams{}.tile_bytes, detail::TileSchedule::kSerial},
      {2, TileParams{}.tile_bytes, detail::TileSchedule::kParityWave},
      {4, TileParams{}.tile_bytes, detail::TileSchedule::kParityWave},
      {4, 1, detail::TileSchedule::kParityWave},
  };
  std::vector<std::unique_ptr<IncrementalEstimator>> incs;
  for (const Engine& e : engines) {
    Params params = t.params;
    params.tile.tile_bytes = e.tile_bytes;
    StreamConfig cfg;
    cfg.threads = e.threads;
    incs.push_back(
        std::make_unique<IncrementalEstimator>(t.domain, params, cfg));
    EXPECT_EQ(detail::plan_tile_schedule(
                  t.domain.dims(), incs.back()->raw().row_stride(),
                  sizeof(float), params.tile, e.threads,
                  t.domain.spatial_bandwidth_voxels(params.hs),
                  t.domain.temporal_bandwidth_voxels(params.ht))
                  .schedule,
              e.schedule)
        << "P=" << e.threads << " tile_bytes=" << e.tile_bytes;
  }

  const double window = 6.0;
  const std::size_t chunk = 80;
  for (std::size_t lo = 0; lo < stream.size(); lo += chunk) {
    const std::size_t hi = std::min(stream.size(), lo + chunk);
    const PointSet batch(stream.begin() + lo, stream.begin() + hi);
    const double cutoff = batch.back().t - window;
    for (auto& inc : incs) inc->advance_window(batch, cutoff);
  }
  const DensityGrid ref = incs.front()->snapshot();
  const double peak = static_cast<double>(ref.max_value());
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < engines.size(); ++i) {
    SCOPED_TRACE(detail::to_string(engines[i].schedule) + std::string(" P=") +
                 std::to_string(engines[i].threads));
    ASSERT_EQ(incs[i]->live_count(), incs.front()->live_count());
    EXPECT_LE(incs[i]->snapshot().max_abs_diff(ref), 1e-5 * peak);
    // The 80-point batches are clustered enough that some tile exceeds the
    // max(32, n/(2P)) threshold: the parity schedule's hotspot pre-wave
    // runs from the input alone. The serial walk splits nothing.
    if (engines[i].schedule == detail::TileSchedule::kParityWave)
      EXPECT_GT(incs[i]->stats().replica_tasks, 0u);
    else
      EXPECT_EQ(incs[i]->stats().replica_tasks, 0u);
  }
}

// The tile engine's table caches belong to the streaming engine, one per
// ingest worker, so they stay warm across batches: a re-added
// lattice-snapped batch computes no table the caches already hold. On the
// voxel-center lattice every event has the same sub-voxel offset, so each
// cache fills exactly one table in its lifetime. Serially that makes the
// second add fill nothing. On the pool, the dynamic schedule decides which
// workers stamp in a pass (a later pass may be a worker's first), so the
// bound is one fill per worker over any number of adds, where fresh caches
// per batch would fill at least once every add.
TEST(Incremental, TableCachesPersistAcrossBatches) {
  const auto t = make_tiny(2000, 3, 2);
  const PointSet batch = data::snap_to_lattice(t.points, t.domain, 1);
  for (const int P : {1, 2}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    StreamConfig cfg;
    cfg.threads = P;
    IncrementalEstimator inc(t.domain, t.params, cfg);
    inc.add(batch);
    const std::uint64_t lookups = inc.stats().table_lookups;
    ASSERT_GT(inc.stats().table_fills, 0u);
    if (P == 1) {
      EXPECT_EQ(inc.stats().table_fills, 1u);
    }
    constexpr std::uint64_t kAdds = 4;
    for (std::uint64_t i = 1; i < kAdds; ++i) inc.add(batch);
    EXPECT_EQ(inc.stats().table_lookups, kAdds * lookups);
    EXPECT_LE(inc.stats().table_fills, static_cast<std::uint64_t>(P));
  }
}

// Each ingest worker's table cache starts at 16 slots and grows only when a
// key comes back to the slot that evicted it. Added once each, the events
// of a seeded uniform continuous feed repeat no offset, so a two-worker
// engine ends 20 batches at 2 x 16 slots; the same feed snapped to a
// 1/8-voxel lattice (64 offsets) makes the caches grow.
TEST(Incremental, TableCachesGrowOnlyWhenOffsetsRecur) {
  const DomainSpec dom{0.0, 0.0, 0.0, 24.0, 20.0, 16.0, 1.0, 1.0};
  Params params;
  params.hs = 3.0;
  params.ht = 2.0;
  const PointSet feed = data::generate_uniform(dom, 4000, 3);
  const PointSet lattice = data::snap_to_lattice(feed, dom, 8);
  StreamConfig cfg;
  cfg.threads = 2;
  IncrementalEstimator cont(dom, params, cfg), snapped(dom, params, cfg);
  constexpr std::size_t kBatches = 20, kBatch = 200;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto lo = static_cast<std::ptrdiff_t>(b * kBatch);
    const auto hi = lo + static_cast<std::ptrdiff_t>(kBatch);
    cont.add(PointSet(feed.begin() + lo, feed.begin() + hi));
    snapped.add(PointSet(lattice.begin() + lo, lattice.begin() + hi));
  }
  EXPECT_EQ(cont.stats().table_slots, 32u);
  EXPECT_EQ(cont.stats().table_fills, cont.stats().table_lookups);
  EXPECT_GT(snapped.stats().table_slots, 32u);
  EXPECT_LT(snapped.stats().table_fills, snapped.stats().table_lookups / 2);
}

TEST(Incremental, ShardedSingleBatchMatchesBatchEstimate) {
  const auto t = make_tiny(150, 3, 2);
  StreamConfig cfg;
  cfg.threads = 4;
  IncrementalEstimator inc(t.domain, t.params, cfg);
  inc.add(t.points);
  const Result batch = estimate(t.points, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_LE(inc.snapshot().max_abs_diff(batch.grid),
            grid_tolerance(batch.grid));
  EXPECT_EQ(inc.live_count(), t.points.size());
}

// Drift checkpoints: after enough +/- churn the engine rebuilds the grid
// from the live set, so cancellation error cannot accumulate unboundedly.
TEST(Incremental, CheckpointRebuildsAndStaysAccurate) {
  const auto t = make_tiny(1, 3, 2);
  StreamConfig cfg;
  cfg.checkpoint_retires = 64;  // rebuild every ~64 retired events
  IncrementalEstimator inc(t.domain, t.params, cfg);
  PointSet stream;
  for (int i = 0; i < 400; ++i)
    stream.push_back(Point{2.0 + (i * 7) % 20, 2.0 + (i * 3) % 16, i * 0.05});
  const double window = 4.0;
  const std::size_t chunk = 40;
  for (std::size_t lo = 0; lo < stream.size(); lo += chunk) {
    const std::size_t hi = std::min(stream.size(), lo + chunk);
    const PointSet batch(stream.begin() + lo, stream.begin() + hi);
    inc.advance_window(batch, batch.back().t - window);
  }
  EXPECT_GE(inc.stats().checkpoints, 1u);
  // The stream runs to t = 19.95, past the domain's 16 + ht = 18: admission
  // quarantines the events beyond, and the live set is the admitted rest.
  const double t_max = t.domain.t0 + t.domain.gt + t.params.ht;
  PointSet live;
  std::uint64_t beyond = 0;
  const double cutoff = stream.back().t - window;
  for (const auto& p : stream) {
    if (p.t > t_max)
      ++beyond;
    else if (p.t >= cutoff)
      live.push_back(p);
  }
  ASSERT_GT(beyond, 0u);
  EXPECT_EQ(inc.stats().quarantined_domain, beyond);
  ASSERT_EQ(inc.live_count(), live.size());
  const Result batch = estimate(live, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_LE(inc.snapshot().max_abs_diff(batch.grid),
            5.0 * grid_tolerance(batch.grid));
}

// A forced checkpoint clears accumulated cancellation residue: after full
// retirement the raw grid returns to *exact* zeros (fill, no live events).
TEST(Incremental, ManualCheckpointClearsResidue) {
  const auto t = make_tiny(100, 3, 2);
  IncrementalEstimator inc(t.domain, t.params);
  inc.add(t.points);
  inc.remove(t.points);
  inc.checkpoint();
  EXPECT_EQ(inc.live_count(), 0u);
  EXPECT_DOUBLE_EQ(inc.raw().sum(), 0.0);
  EXPECT_EQ(inc.raw().max_value(), 0.0f);
}

TEST(Incremental, DensityAtMatchesSnapshot) {
  const auto t = make_tiny(60, 3, 2);
  IncrementalEstimator inc(t.domain, t.params);
  inc.add(t.points);
  const DensityGrid snap = inc.snapshot();
  const VoxelMapper map(t.domain);
  const Voxel v = map.voxel_of(t.points.front());
  EXPECT_FLOAT_EQ(inc.density_at(v), snap.at(v.x, v.y, v.t));
}

// Regression for the serve-layer straddle bug: density_at() used to re-read
// the freshest publish on every call, so two probes in one logical request
// could straddle a publish and see inconsistent (raw, n) pairs. Reads must
// go through one pinned state.
TEST(Incremental, PinnedReadsNeverStraddleAPublish) {
  const auto t = make_tiny(1, 3, 2);
  const Point p0{12.0, 10.0, 8.0};
  const Point far{2.0, 2.0, 2.0};
  const VoxelMapper map(t.domain);
  const Voxel v0 = map.voxel_of(p0);

  IncrementalEstimator inc(t.domain, t.params);
  inc.add(PointSet{p0});
  const float c0 = inc.density_at(v0);
  ASSERT_GT(c0, 0.0f);

  const ReaderPin pin = inc.pin();
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.live(), 1u);
  const std::uint64_t seq0 = pin.seq();

  // Publish three more events far from v0: raw at v0 is untouched, but the
  // normalizer becomes 4, so the *live* density at v0 drops to c0/4.
  inc.add(PointSet{far, far, far});
  EXPECT_NEAR(inc.density_at(v0), c0 / 4.0f, 1e-6f * c0);

  // The pin still answers from its own version: same seq, same n, same
  // density — n and raw can never come from different publishes.
  EXPECT_EQ(pin.seq(), seq0);
  EXPECT_EQ(pin.live(), 1u);
  EXPECT_FLOAT_EQ(pin.density_at(v0), c0);
  EXPECT_FLOAT_EQ(static_cast<float>(
                      static_cast<double>(pin.raw().at(v0.x, v0.y, v0.t)) *
                      pin.norm()),
                  c0);
}

TEST(Incremental, DensityAtOutsideGridIsZero) {
  const auto t = make_tiny(20, 3, 2);
  IncrementalEstimator inc(t.domain, t.params);
  inc.add(t.points);
  EXPECT_FLOAT_EQ(inc.density_at(Voxel{-5, 0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(inc.density_at(Voxel{0, 0, 1 << 20}), 0.0f);
}

TEST(Incremental, PublishHookSeesEveryConsistentPublish) {
  const auto t = make_tiny(1, 3, 2);
  const Point p0{12.0, 10.0, 8.0};
  const VoxelMapper map(t.domain);
  const Voxel v0 = map.voxel_of(p0);

  IncrementalEstimator inc(t.domain, t.params);
  inc.add(PointSet{p0});
  const float c0 = inc.density_at(v0);

  std::uint64_t calls = 0;
  std::uint64_t last_seq = 0;
  int violations = 0;
  inc.set_publish_hook([&](const ReaderPin& pin) {
    ++calls;
    if (pin.seq() <= last_seq) ++violations;  // seqs strictly increase
    last_seq = pin.seq();
    // Identical-point stream: every consistent state has density c0 at v0.
    if (std::abs(pin.density_at(v0) - c0) > 1e-3f * c0) ++violations;
  });
  const std::uint64_t before = inc.stats().publishes;
  for (int i = 0; i < 5; ++i) inc.add(PointSet(8, p0));
  inc.checkpoint();
  EXPECT_EQ(calls, inc.stats().publishes - before);
  EXPECT_EQ(violations, 0);
  inc.set_publish_hook(nullptr);
  inc.add(PointSet(8, p0));
  EXPECT_EQ(calls, 6u);  // detached: no further calls
}

TEST(Incremental, EmptyStreamProbes) {
  const auto t = make_tiny(1, 2, 1);
  IncrementalEstimator inc(t.domain, t.params);
  EXPECT_EQ(inc.live_count(), 0u);
  EXPECT_FLOAT_EQ(inc.density_at(Voxel{0, 0, 0}), 0.0f);
}

TEST(Incremental, AccessorsExposeConfiguration) {
  const auto t = make_tiny(1, 2, 1);
  IncrementalEstimator inc(t.domain, t.params);
  EXPECT_EQ(inc.domain(), t.domain);
  EXPECT_DOUBLE_EQ(inc.params().hs, t.params.hs);
}

TEST(Incremental, RejectsBadParams) {
  const auto t = make_tiny(1, 2, 1);
  Params bad = t.params;
  bad.hs = 0.0;
  EXPECT_THROW(IncrementalEstimator(t.domain, bad), std::invalid_argument);
}

}  // namespace
}  // namespace stkde::core
