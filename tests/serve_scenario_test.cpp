/// End-to-end serve scenarios: the epidemic_dengue and bird_flu_surveillance
/// examples graduated into deterministic regression tests. Each scenario
/// streams a generated dataset through a sharded IncrementalEstimator with a
/// sliding window, then answers every serve endpoint — density_at, region
/// sum/max, slice, hotspots, region_grid over the wire — from a pinned
/// snapshot, and checks each answer against a serial batch estimator run
/// over exactly the live window.
///
/// Domains are scaled-down versions of the examples' (same shape, fewer
/// voxels) so both scenarios run in seconds; everything is seeded, so the
/// expected values are bit-stable across runs.

#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <variant>
#include <vector>

#include "core/estimator.hpp"
#include "core/incremental.hpp"
#include "data/datasets.hpp"
#include "helpers.hpp"
#include "io/slice.hpp"
#include "serve/service.hpp"
#include "serve/snapshot_registry.hpp"
#include "serve/wire.hpp"

namespace stkde::serve {
namespace {

using stkde::core::IncrementalEstimator;
using stkde::core::StreamConfig;

/// Serial-reference sum of normalized density over a region.
double ref_region_sum(const DensityGrid& g, const Extent3& region) {
  const Extent3 r = region.intersect(g.extent());
  double sum = 0.0;
  for (std::int32_t X = r.xlo; X < r.xhi; ++X)
    for (std::int32_t Y = r.ylo; Y < r.yhi; ++Y)
      for (std::int32_t T = r.tlo; T < r.thi; ++T)
        sum += static_cast<double>(g.at(X, Y, T));
  return sum;
}

/// Argmax voxel of a grid (ties: first in XYT order).
Voxel ref_argmax(const DensityGrid& g) {
  Voxel best{};
  float bestv = -1.0f;
  const Extent3& e = g.extent();
  for (std::int32_t X = e.xlo; X < e.xhi; ++X)
    for (std::int32_t Y = e.ylo; Y < e.yhi; ++Y)
      for (std::int32_t T = e.tlo; T < e.thi; ++T)
        if (g.at(X, Y, T) > bestv) {
          bestv = g.at(X, Y, T);
          best = Voxel{X, Y, T};
        }
  return best;
}

struct Scenario {
  DomainSpec domain;
  Params params;
  PointSet stream;        ///< time-sorted event feed
  double window;          ///< sliding-window length (time units)
  double batch_span;      ///< feed granularity (time units per batch)
};

/// Stream the feed through a sharded writer, then compare every serve
/// endpoint against a serial batch estimate over the live window.
void run_scenario(Scenario sc, const Extent3& probe_box) {
  std::sort(sc.stream.begin(), sc.stream.end(),
            [](const Point& a, const Point& b) { return a.t < b.t; });

  // 256 KiB budget tiles are 2Hs-wide on both scenario grids (2x2 and 2x1
  // tiles), so the P=2 plan runs parity waves over the finest safe tiling
  // (3x3 and 10x6), several tiles a wave.
  sc.params.tile.tile_bytes = std::int64_t{256} << 10;
  StreamConfig cfg;
  cfg.threads = 2;
  IncrementalEstimator inc(sc.domain, sc.params, cfg);
  SnapshotRegistry reg(inc);

  // Ingest in batch_span-sized slabs; the window trails the feed.
  double cutoff = sc.stream.front().t;
  std::size_t i = 0;
  while (i < sc.stream.size()) {
    const double upto = sc.stream[i].t + sc.batch_span;
    std::size_t j = i;
    while (j < sc.stream.size() && sc.stream[j].t < upto) ++j;
    cutoff = upto - sc.window;
    inc.advance_window(
        PointSet(sc.stream.begin() + static_cast<std::ptrdiff_t>(i),
                 sc.stream.begin() + static_cast<std::ptrdiff_t>(j)),
        cutoff);
    i = j;
  }
  // A checkpoint rebuilds from the live set, bounding the +/- cancellation
  // drift a long stream accumulates; the serve layer then answers from the
  // republished state. (Pre-checkpoint agreement is covered at a looser
  // bound by incremental_test.)
  inc.checkpoint();

  // Serial reference over exactly the live window.
  PointSet live;
  for (const Point& p : sc.stream)
    if (p.t >= cutoff) live.push_back(p);
  ASSERT_FALSE(live.empty());
  ASSERT_EQ(inc.live_count(), live.size());
  Params serial = sc.params;
  serial.threads = 1;
  const Result ref = estimate(live, sc.domain, serial, Algorithm::kPBSym);
  const float peak = ref.grid.max_value();
  ASSERT_GT(peak, 0.0f);
  const double tol = 1e-5 * static_cast<double>(peak);

  Session session(reg, SessionConfig{});
  const BeginResult begin = session.begin_request();
  ASSERT_EQ(begin.state, SessionState::kFresh);
  ASSERT_GT(begin.version, 0u);

  // Whole-grid and sub-region aggregates.
  const Extent3 whole = ref.grid.extent();
  EXPECT_NEAR(session.region_sum(whole), ref_region_sum(ref.grid, whole),
              1e-5 * std::abs(ref_region_sum(ref.grid, whole)) + tol);
  EXPECT_NEAR(session.region_sum(probe_box),
              ref_region_sum(ref.grid, probe_box),
              1e-5 * std::abs(ref_region_sum(ref.grid, whole)) + tol);
  EXPECT_NEAR(session.region_max(whole), peak, tol);

  // Point probes: the reference peak voxel and a handful of others.
  const Voxel peak_voxel = ref_argmax(ref.grid);
  EXPECT_NEAR(session.density_at(peak_voxel), peak, tol);
  const VoxelMapper map(sc.domain);
  for (const Point& p :
       {sc.stream[sc.stream.size() / 2], live.front(), live.back()}) {
    if (!map.in_domain(p)) continue;
    const Voxel vox = map.voxel_of(p);
    EXPECT_NEAR(session.density_at(p), ref.grid.at(vox.x, vox.y, vox.t), tol);
  }

  // The hottest hotspot matches the reference peak (a near-tie-safe check:
  // the reported peak cell carries reference density within tol of max).
  const std::vector<Hotspot> hot = session.top_hotspots(3, 0.99);
  ASSERT_FALSE(hot.empty());
  EXPECT_NEAR(hot[0].peak_density, peak, tol);
  EXPECT_NEAR(ref.grid.at(hot[0].peak.x, hot[0].peak.y, hot[0].peak.t), peak,
              tol);
  EXPECT_GT(hot[0].mass, 0.0);
  EXPECT_GT(hot[0].voxels, 0);

  // Time slice through the reference peak.
  const io::Field2D plane = session.slice(peak_voxel.t);
  const io::Field2D ref_plane = io::time_slice(ref.grid, peak_voxel.t);
  ASSERT_EQ(plane.nx, ref_plane.nx);
  ASSERT_EQ(plane.ny, ref_plane.ny);
  for (std::size_t c = 0; c < plane.values.size(); ++c)
    ASSERT_NEAR(plane.values[c], ref_plane.values[c], tol) << "cell " << c;

  // Region grid over the wire: encode -> serve_frame -> decode, then cell
  // compare. This is the full query path a remote client exercises.
  const wire::Frame qf =
      wire::encode(wire::QueryMessage{wire::RegionGridQuery{probe_box}});
  const wire::Frame rf = serve_frame(session, qf.data(), qf.size());
  const auto resp = wire::decode_response(rf.data(), rf.size());
  ASSERT_TRUE(resp.has_value());
  const auto* gridresp = std::get_if<wire::RegionGridResponse>(&*resp);
  ASSERT_NE(gridresp, nullptr);
  EXPECT_EQ(gridresp->version, begin.version);
  const Extent3 r = probe_box.intersect(whole);
  ASSERT_EQ(gridresp->grid.extent(), r);
  for (std::int32_t X = r.xlo; X < r.xhi; ++X)
    for (std::int32_t Y = r.ylo; Y < r.yhi; ++Y)
      for (std::int32_t T = r.tlo; T < r.thi; ++T)
        ASSERT_NEAR(gridresp->grid.at(X, Y, T), ref.grid.at(X, Y, T), tol);
}

TEST(ServeScenario, EpidemicDengue) {
  // examples/epidemic_dengue.cpp's Cali-sized city, scaled down: 3 x 2.5 km
  // at 50 m cells over 60 days of daily slices (60 x 50 x 60 voxels), with
  // the example's "focused" bandwidth shape. A 14-day surveillance window
  // slides over the feed in daily batches.
  Scenario sc;
  sc.domain = DomainSpec{0, 0, 0, 3'000.0, 2'500.0, 60.0, 50.0, 1.0};
  sc.params.hs = 400.0;  // meters
  sc.params.ht = 7.0;    // days
  sc.stream =
      data::generate_dataset(data::Dataset::kDengue, sc.domain, 4000, 2010);
  sc.window = 14.0;
  sc.batch_span = 1.0;
  run_scenario(std::move(sc), Extent3{10, 40, 8, 35, 40, 58});
}

TEST(ServeScenario, BirdFluSurveillance) {
  // examples/bird_flu_surveillance.cpp's Alaska-to-Japan domain, scaled
  // down: 60 x 40 degrees at 1 degree cells, 90 days of 3-day slices
  // (60 x 40 x 30 voxels) — still the sparse, init-dominated regime. A
  // 45-day window slides in 9-day batches.
  Scenario sc;
  sc.domain = DomainSpec{-180.0, -60.0, 0.0, 60.0, 40.0, 90.0, 1.0, 3.0};
  sc.params.hs = 3.0;   // degrees
  sc.params.ht = 21.0;  // days
  sc.stream =
      data::generate_dataset(data::Dataset::kFlu, sc.domain, 1500, 2001);
  sc.window = 45.0;
  sc.batch_span = 9.0;
  run_scenario(std::move(sc), Extent3{5, 55, 5, 35, 10, 28});
}

}  // namespace
}  // namespace stkde::serve
