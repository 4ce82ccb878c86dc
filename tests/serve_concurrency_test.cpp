/// Serve-layer concurrency contract: N reader sessions issuing queries
/// against a registry fed by a live sharded writer must observe
///  (1) immutability — the grid bytes behind a pinned version never change,
///      no matter how much the writer publishes afterwards;
///  (2) monotone versions — registry heads and per-session pins only move
///      forward;
///  (3) bounded staleness — begin_request() never serves a version more
///      than SessionConfig::max_staleness behind the head observed before
///      the call;
///  (4) request consistency — every response within one request carries the
///      same version (the straddle bug density_at() used to exhibit).
///
/// This test runs under TSan in CI (the tsan job runs the whole suite), so
/// it is also the data-race detector for the whole registry/session/wire
/// stack.

#include "serve/snapshot_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "helpers.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"

namespace stkde::serve {
namespace {

using stkde::core::IncrementalEstimator;
using stkde::core::StreamConfig;
using stkde::testing::make_tiny;

/// Time-sorted clustered stream for a sliding-window writer.
PointSet sorted_stream(std::size_t n, std::uint64_t seed) {
  auto t = make_tiny(n, 3, 2, seed);
  std::sort(t.points.begin(), t.points.end(),
            [](const Point& a, const Point& b) { return a.t < b.t; });
  return t.points;
}

TEST(ServeConcurrency, PinnedSnapshotBytesNeverChange) {
  const auto t = make_tiny(1, 3, 2);
  StreamConfig cfg;
  cfg.threads = 2;
  IncrementalEstimator inc(t.domain, t.params, cfg);
  SnapshotRegistry reg(inc);

  PointSet stream = sorted_stream(600, 7);
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; i += 50)
    inc.add(PointSet(stream.begin() + static_cast<std::ptrdiff_t>(i),
                     stream.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(i + 50, half))));

  const Snapshot pinned = reg.pin();
  ASSERT_TRUE(pinned.valid());
  const std::uint64_t v = pinned.version;
  const std::size_t n = pinned.n;
  std::vector<float> bytes(pinned.raw->data(),
                           pinned.raw->data() + pinned.raw->size());

  // Keep writing: plain adds, window slides (buffer churn through the
  // estimator's pool), and a checkpoint (full rebuild).
  double cutoff = 2.0;
  for (std::size_t i = half; i < stream.size(); i += 50) {
    PointSet batch(stream.begin() + static_cast<std::ptrdiff_t>(i),
                   stream.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(i + 50, stream.size())));
    inc.advance_window(batch, cutoff);
    cutoff += 0.5;
  }
  inc.checkpoint();
  ASSERT_GT(reg.head_version(), v);

  EXPECT_EQ(pinned.version, v);
  EXPECT_EQ(pinned.n, n);
  EXPECT_EQ(pinned.raw->size(), bytes.size());
  EXPECT_EQ(std::memcmp(pinned.raw->data(), bytes.data(),
                        bytes.size() * sizeof(float)),
            0);
}

TEST(ServeConcurrency, HeadIsMonotoneAndRejectsStaleVersions) {
  const auto t = make_tiny(1, 2, 1);
  SnapshotRegistry reg(t.domain);
  EXPECT_EQ(reg.head_version(), 0u);
  EXPECT_FALSE(reg.pin().valid());

  auto make = [&](std::uint64_t version) {
    auto g = std::make_shared<DensityGrid>(t.domain.dims());
    g->fill(static_cast<float>(version));
    return Snapshot{std::move(g), 1, version};
  };
  reg.publish(make(5));
  EXPECT_EQ(reg.head_version(), 5u);
  reg.publish(make(3));  // replay/reorder: dropped
  reg.publish(make(5));  // duplicate: dropped
  EXPECT_EQ(reg.head_version(), 5u);
  EXPECT_EQ(reg.pin().raw->at(0, 0, 0), 5.0f);
  reg.publish(make(6));
  EXPECT_EQ(reg.head_version(), 6u);
  EXPECT_EQ(reg.stats().published, 2u);
  EXPECT_EQ(reg.stats().rejected, 2u);
}

TEST(ServeConcurrency, WaitForVersionObservesTheWriter) {
  const auto t = make_tiny(1, 2, 1);
  SnapshotRegistry reg(t.domain);
  std::thread writer([&] {
    for (std::uint64_t v = 1; v <= 4; ++v) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      auto g = std::make_shared<DensityGrid>(t.domain.dims());
      g->fill(0.0f);
      reg.publish(Snapshot{std::move(g), 1, v});
    }
  });
  EXPECT_TRUE(reg.wait_for_version(4, std::chrono::milliseconds(5000)));
  EXPECT_GE(reg.head_version(), 4u);
  EXPECT_FALSE(reg.wait_for_version(100, std::chrono::milliseconds(20)));
  writer.join();
}

TEST(ServeConcurrency, ReaderSessionsAgainstLiveShardedWriter) {
  const auto t = make_tiny(1, 3, 2);
  // 4 KiB budget tiles are 2Hs-wide on the tiny grid, so the 3-thread plan
  // runs parity waves over the finest safe tiling (4x3), several tiles a
  // wave.
  Params params = t.params;
  params.tile.tile_bytes = 4096;
  StreamConfig cfg;
  cfg.threads = 3;
  IncrementalEstimator inc(t.domain, params, cfg);
  SnapshotRegistry reg(inc);

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> monotone_violations{0};
  std::atomic<int> staleness_violations{0};
  std::atomic<int> consistency_violations{0};
  std::atomic<int> decode_failures{0};

  // Readers 0/1 demand freshness (max_staleness = 0); readers 2/3 accept a
  // 3-version-stale pin, so both re-pin policies run under contention.
  auto reader = [&](int id) {
    SessionConfig scfg;
    scfg.max_staleness = id < 2 ? 0 : 3;
    Session session(reg, scfg);
    std::uint64_t last = 0;
    const Extent3 box{2, 14, 2, 12, 1, 9};
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t head_before = reg.head_version();
      const BeginResult begin = session.begin_request();
      const std::uint64_t v = begin.version;
      if (v < last) monotone_violations.fetch_add(1);
      last = v;
      if (v + scfg.max_staleness < head_before)
        staleness_violations.fetch_add(1);
      if (reg.head_version() < v) monotone_violations.fetch_add(1);

      // One request, three queries through the wire: all three responses
      // must report the same version.
      const wire::Frame q1 =
          wire::encode(wire::QueryMessage{wire::DensityAtQuery{
              Point{12.0, 10.0, 8.0}}});
      const wire::Frame q2 = wire::encode(wire::QueryMessage{
          wire::RegionQuery{box, wire::RegionOp::kSum}});
      const wire::Frame q3 =
          wire::encode(wire::QueryMessage{wire::HotspotsQuery{2, 0.95}});
      for (const wire::Frame* q : {&q1, &q2, &q3}) {
        const wire::Frame resp = serve_frame(session, q->data(), q->size());
        const auto msg = wire::decode_response(resp.data(), resp.size());
        if (!msg) {
          decode_failures.fetch_add(1);
          continue;
        }
        // Before the first publish the request is kNoData and every data
        // query must answer a typed kUnavailable error — that error frame
        // is this phase's "consistent" response. Once the request holds a
        // version, responses must all carry it and never be errors.
        if (const auto* err = std::get_if<wire::ErrorResponse>(&*msg)) {
          const bool expected_unavailable =
              !begin.ok() && err->code == wire::ErrorCode::kUnavailable;
          if (!expected_unavailable) consistency_violations.fetch_add(1);
          continue;
        }
        if (!begin.ok()) {
          // A data answer from a request that held no version at all.
          consistency_violations.fetch_add(1);
          continue;
        }
        const std::uint64_t resp_version = std::visit(
            [](const auto& m) -> std::uint64_t {
              using T = std::decay_t<decltype(m)>;
              if constexpr (std::is_same_v<T, wire::ErrorResponse>)
                return ~std::uint64_t{0};
              else
                return m.version;
            },
            *msg);
        if (resp_version != v) consistency_violations.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader, r);

  PointSet stream = sorted_stream(3000, 11);
  constexpr std::size_t kBatch = 48;
  double cutoff = 1.0;
  for (std::size_t i = 0; i < stream.size(); i += kBatch) {
    PointSet batch(stream.begin() + static_cast<std::ptrdiff_t>(i),
                   stream.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(i + kBatch, stream.size())));
    // Every fourth batch carries a 64-event burst at one position: a
    // hotspot tile above the max(32, n/(2P)) threshold, so the replica
    // pre-wave runs beside the readers.
    if ((i / kBatch) % 4 == 0) batch.insert(batch.end(), 64, batch.back());
    inc.advance_window(batch, cutoff);
    cutoff += 0.2;
  }
  inc.checkpoint();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(monotone_violations.load(), 0);
  EXPECT_EQ(staleness_violations.load(), 0);
  EXPECT_EQ(consistency_violations.load(), 0);
  EXPECT_EQ(decode_failures.load(), 0);
  // Every estimator publish reached the registry (hook wiring), none were
  // reordered.
  EXPECT_EQ(reg.stats().published, inc.stats().publishes);
  EXPECT_EQ(reg.stats().rejected, 0u);
  EXPECT_GT(reg.stats().published, 0u);
  // The replica path ran beside the readers (this test is its TSan cover).
  EXPECT_GT(inc.stats().replica_tasks, 0u);
}

}  // namespace
}  // namespace stkde::serve
