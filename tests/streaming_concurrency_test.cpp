/// Concurrency contract of the streaming engine: reader threads probing
/// snapshot()/density_at()/live_count() while the writer ingests batches
/// must only ever observe *published* states — never a half-applied batch.
///
/// The tear detector uses an identical-point stream: every live event is the
/// same point p0, so in any consistent state the normalized density at p0's
/// voxel equals the single-event contribution c0 regardless of how many
/// events are live (raw = n * c0, density = raw / n). A reader that saw a
/// partially scattered batch — or a count inconsistent with the grid — would
/// observe a deviation from c0 far above float accumulation noise. Batches
/// have a fixed size, so published live counts are also always multiples of
/// the batch size.

#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "geom/voxel_mapper.hpp"
#include "helpers.hpp"

namespace stkde::core {
namespace {

using stkde::testing::make_tiny;

TEST(StreamingConcurrency, ReadersNeverObserveTornBatch) {
  const auto t = make_tiny(1, 3, 2);
  const Point p0{12.0, 10.0, 8.0};
  const VoxelMapper map(t.domain);
  const Voxel v0 = map.voxel_of(p0);

  // Reference single-event contribution from an independent serial engine.
  float c0 = 0.0f;
  {
    IncrementalEstimator ref(t.domain, t.params);
    ref.add(PointSet{p0});
    c0 = ref.density_at(v0);
  }
  ASSERT_GT(c0, 0.0f);

  // Sharded writer on 2Hs-wide 4 KiB budget tiles: parity waves over the
  // finest safe tiling (4x3). Every batch stacks 64 events in one tile,
  // above the max(32, n/(2P)) hotspot threshold, so the replica pre-wave
  // runs concurrently with the readers.
  Params params = t.params;
  params.tile.tile_bytes = 4096;
  StreamConfig cfg;
  cfg.threads = 3;
  IncrementalEstimator inc(t.domain, params, cfg);

  constexpr std::size_t kBatch = 64;
  constexpr int kBatches = 60;
  std::atomic<bool> stop{false};
  std::atomic<int> count_violations{0};
  std::atomic<int> density_violations{0};

  auto reader = [&] {
    std::uint64_t probes = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t n = inc.live_count();
      const float d = inc.density_at(v0);
      if (n == 0) continue;
      if (n % kBatch != 0) count_violations.fetch_add(1);
      // Naive float summation of n identical contributions drifts by
      // O(n * eps); 1e-3 relative is orders above that at n <= ~4000.
      if (std::abs(d - c0) > 1e-3f * c0) density_violations.fetch_add(1);
      if (++probes % 64 == 0) {
        const DensityGrid snap = inc.snapshot();
        if (std::abs(snap.at(v0.x, v0.y, v0.t) - c0) > 1e-3f * c0)
          density_violations.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) readers.emplace_back(reader);

  const PointSet batch(kBatch, p0);
  for (int i = 0; i < kBatches; ++i) {
    inc.add(batch);
    // Every fourth batch, churn the negative path too (stays a multiple of
    // kBatch, and exercises remove + checkpoint machinery under readers).
    if (i % 4 == 3) inc.remove(batch);
  }
  inc.checkpoint();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(count_violations.load(), 0);
  EXPECT_EQ(density_violations.load(), 0);
  EXPECT_EQ(inc.live_count(), kBatch * (kBatches - kBatches / 4));
  // The replica path ran beside the readers (this test is its TSan cover).
  EXPECT_GT(inc.stats().replica_tasks, 0u);
}

// Static-analysis regression (docs/ANALYSIS.md): the publish buffer's
// return-to-pool shared_ptr deleter was flagged as an unannotated-lock
// escape suspect — it runs on whichever thread drops the last pin and
// re-enters the writer's BufferPool. The protocol is sound (BufferPool::put
// takes the pool mutex internally; both it and the guarded free-list are
// now thread-safety-annotated), and this test hammers exactly that edge:
// reader threads holding pins across publishes and dropping them in
// shuffled order, so deleters fire concurrently from reader threads while
// the writer recycles buffers. ASan would catch a double-return or
// use-after-free; TSan an unlocked pool touch; the pinned-value checks a
// buffer recycled while still referenced.
TEST(StreamingConcurrency, DroppedPinsReturnBuffersSafelyAcrossThreads) {
  const auto t = make_tiny(1, 3, 2);
  const Point p0{12.0, 10.0, 8.0};
  const VoxelMapper map(t.domain);
  const Voxel v0 = map.voxel_of(p0);

  // Single-event reference contribution: a pinned buffer holding n live
  // copies of p0 must read n * c0 at v0 for as long as the pin is held.
  float c0 = 0.0f;
  {
    IncrementalEstimator ref(t.domain, t.params);
    ref.add(PointSet{p0});
    c0 = ref.density_at(v0);
  }
  ASSERT_GT(c0, 0.0f);

  IncrementalEstimator inc(t.domain, t.params);
  constexpr int kRounds = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> stale_pin_violations{0};

  auto reader = [&] {
    std::vector<ReaderPin> held;
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
    while (!stop.load(std::memory_order_acquire)) {
      held.push_back(inc.pin());
      if (held.size() >= 6) {
        // Drop a pseudo-random pin, not the oldest: deleters must fire
        // out of publish order.
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::size_t victim = (seed >> 33) % held.size();
        // The pinned grid must still agree with the pinned live count —
        // a buffer recycled by the writer while this pin referenced it
        // would hold a newer, larger sum.
        const ReaderPin& pin = held[victim];
        if (pin.valid()) {
          const auto n = static_cast<float>(pin.live());
          if (std::abs(pin.raw().at(v0.x, v0.y, v0.t) - n * c0) >
              1e-3f * std::max(1.0f, n * c0))
            stale_pin_violations.fetch_add(1);
        }
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader);

  const PointSet batch(8, p0);
  for (int i = 0; i < kRounds; ++i) inc.add(batch);
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(stale_pin_violations.load(), 0);
  EXPECT_EQ(inc.live_count(), 8u * kRounds);
  // The pool cap bounds retained buffers; a leak of every dropped pin's
  // buffer would trip ASan's leak check in the sanitizer job.
}

TEST(StreamingConcurrency, SnapshotIsAnIndependentCopy) {
  // snapshot() hands back a deep value copy: later ingestion (which reuses
  // and overwrites publish buffers internally) must never show through a
  // snapshot the caller already holds. (The reuse protocol itself is
  // exercised under contention — and under TSan — by the test above.)
  const auto t = make_tiny(60, 3, 2);
  StreamConfig cfg;
  cfg.threads = 2;
  IncrementalEstimator inc(t.domain, t.params, cfg);
  inc.add(t.points);
  const DensityGrid first = inc.snapshot();
  const double sum_before = first.sum();
  for (int i = 0; i < 8; ++i) inc.add(PointSet{Point{5.0, 5.0, 4.0 + i}});
  // `first` is a value copy taken from the state published by the first
  // add; later publishes must leave it untouched.
  EXPECT_DOUBLE_EQ(first.sum(), sum_before);
  EXPECT_EQ(inc.live_count(), t.points.size() + 8);
}

}  // namespace
}  // namespace stkde::core
