// Serve quickstart: density-as-a-service in ~40 lines. A sharded streaming
// writer ingests a surveillance feed; a snapshot registry publishes each
// batch as an immutable version; a reader session answers queries from one
// pinned version — point probes, region aggregates, and ranked hotspots all
// consistent with each other no matter how fast the writer publishes.
//
//   $ ./serve_quickstart

#include <algorithm>
#include <iostream>

#include "core/incremental.hpp"
#include "data/datasets.hpp"
#include "serve/session.hpp"
#include "serve/snapshot_registry.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace stkde;
  const util::CommandLine args(argc, argv, "");  // --help, or no arguments

  // A city-scale domain and a dengue-style feed (see examples/quickstart.cpp
  // for the batch-estimation tour of the same data).
  const DomainSpec city{0.0, 0.0, 0.0, 6'000.0, 5'000.0, 60.0, 50.0, 1.0};
  PointSet feed =
      data::generate_dataset(data::Dataset::kDengue, city, 20'000, 42);
  Params params;
  params.hs = 400.0;
  params.ht = 7.0;

  // Writer side: sharded streaming estimator + attached registry. Every
  // ingested batch publishes a new immutable version to the registry.
  core::StreamConfig cfg;
  cfg.threads = 2;
  core::IncrementalEstimator writer(city, params, cfg);
  serve::SnapshotRegistry registry(writer);  // declared after: destroyed first

  // Stream the feed through a 14-day sliding window, one day per batch.
  std::sort(feed.begin(), feed.end(),
            [](const Point& a, const Point& b) { return a.t < b.t; });
  std::size_t cursor = 0;
  for (int day = 0; day < 60; ++day) {
    PointSet batch;
    while (cursor < feed.size() && feed[cursor].t < day + 1.0)
      batch.push_back(feed[cursor++]);
    writer.advance_window(batch, day + 1.0 - 14.0);
  }
  std::cout << "writer: " << writer.live_count() << " live events, version "
            << registry.head_version() << " published\n";

  // Reader side: a session pins one version per request; every query below
  // is answered from the same snapshot even if the writer keeps publishing.
  serve::Session session(registry);
  session.begin_request();
  const Point downtown{3'000.0, 2'500.0, 55.0};
  std::cout << "density at downtown, day 55: " << session.density_at(downtown)
            << "\n"
            << "mass over the whole window:  "
            << session.region_sum(Extent3{0, city.dims().gx, 0, city.dims().gy,
                                          0, city.dims().gt})
            << "\n";
  for (const serve::Hotspot& h : session.top_hotspots(3))
    std::cout << "hotspot: peak " << h.peak_density << " at voxel ("
              << h.peak.x << "," << h.peak.y << "," << h.peak.t << "), mass "
              << h.mass << " over " << h.voxels << " voxels\n";
  return 0;
}
