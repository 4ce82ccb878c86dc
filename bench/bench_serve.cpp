// Serve-layer load generator: p50/p99 query latency of concurrent reader
// sessions answering a mixed workload (point probes, region aggregates,
// slices, hotspots, region grids) through the full wire path — encode ->
// serve_frame -> decode — while a sharded writer ingests a live
// sliding-window feed behind the snapshot registry.
//
// --json <path> writes the run as a JSON artifact (nothing is written
// without it); --smoke shrinks the feed and query counts for CI.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common.hpp"
#include "core/incremental.hpp"
#include "data/datasets.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/snapshot_registry.hpp"
#include "serve/wire.hpp"
#include "util/timer.hpp"

using namespace stkde;

namespace {

struct LoadConfig {
  int days = 60;
  double window = 14.0;
  std::size_t per_day = 2500;
  double extent = 6000.0;        // meters; 50 m voxels
  int readers = 4;               // concurrent sessions (>= 4 per acceptance)
  std::size_t queries = 4000;    // requests per reader session
  std::uint64_t staleness = 4;   // session re-pin bound (versions)
};

const char* const kQueryNames[] = {"density_at", "region_sum", "region_max",
                                   "slice",      "hotspots",   "region_grid"};
constexpr std::size_t kQueryKinds = 6;

/// Latency samples (seconds) for one query kind.
using Samples = std::vector<double>;

double percentile(Samples s, double p) {
  if (s.empty()) return 0.0;
  std::sort(s.begin(), s.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(s.size() - 1) + 0.5);
  return s[std::min(idx, s.size() - 1)];
}

/// The mixed workload, one frame per kind, cycled per request.
std::vector<serve::wire::Frame> make_workload(const DomainSpec& dom) {
  namespace w = serve::wire;
  const GridDims dims = dom.dims();
  const Extent3 mid{dims.gx / 4, 3 * dims.gx / 4, dims.gy / 4,
                    3 * dims.gy / 4, dims.gt - 16, dims.gt - 2};
  const Extent3 patch{dims.gx / 2 - 4, dims.gx / 2 + 4, dims.gy / 2 - 4,
                      dims.gy / 2 + 4, dims.gt - 10, dims.gt - 4};
  std::vector<w::Frame> frames;
  frames.push_back(w::encode(w::QueryMessage{w::DensityAtQuery{
      Point{dom.x0 + dom.gx / 2, dom.y0 + dom.gy / 2, dom.t0 + dom.gt - 5}}}));
  frames.push_back(w::encode(w::QueryMessage{
      w::RegionQuery{mid, w::RegionOp::kSum}}));
  frames.push_back(w::encode(w::QueryMessage{
      w::RegionQuery{mid, w::RegionOp::kMax}}));
  frames.push_back(w::encode(w::QueryMessage{w::SliceQuery{dims.gt - 6}}));
  frames.push_back(w::encode(w::QueryMessage{w::HotspotsQuery{4, 0.99}}));
  frames.push_back(w::encode(w::QueryMessage{w::RegionGridQuery{patch}}));
  return frames;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const bench::BenchEnv env = bench::bench_env(cli);
  bench::print_banner("Serve layer — concurrent query latency", env);

  LoadConfig lc;
  if (cli.smoke) {
    lc.days = 24;
    lc.per_day = 800;
    lc.extent = 4000.0;
    lc.queries = 600;
  }

  const DomainSpec city{0, 0, 0, lc.extent, lc.extent,
                        static_cast<double>(lc.days), 50.0, 1.0};
  Params params;
  params.hs = 400.0;
  params.ht = 5.0;
  PointSet feed = data::generate_dataset(
      data::Dataset::kDengue, city,
      lc.per_day * static_cast<std::size_t>(lc.days), 99);
  std::sort(feed.begin(), feed.end(),
            [](const Point& a, const Point& b) { return a.t < b.t; });

  const GridDims dims = city.dims();
  std::cout << "dengue feed: " << feed.size() << " events over " << lc.days
            << " days, grid " << dims.gx << "x" << dims.gy << "x" << dims.gt
            << "; " << lc.readers << " reader sessions x " << lc.queries
            << " requests (max_staleness " << lc.staleness << ")\n\n";

  core::StreamConfig cfg;
  cfg.threads = 2;
  core::IncrementalEstimator inc(city, params, cfg);
  serve::SnapshotRegistry reg(inc);

  // Pre-fill half the feed so readers query a populated window from request
  // one, then stream the rest live under the readers.
  const std::size_t warm = feed.size() / 2;
  {
    std::size_t i = 0;
    std::size_t batch = 256;
    while (i < warm) {
      const std::size_t j = std::min(warm, i + batch);
      const PointSet b(feed.begin() + static_cast<std::ptrdiff_t>(i),
                       feed.begin() + static_cast<std::ptrdiff_t>(j));
      inc.advance_window(b, b.back().t - lc.window);
      i = j;
    }
  }

  const std::vector<serve::wire::Frame> workload = make_workload(city);
  std::atomic<bool> stop_writer{false};
  std::atomic<std::uint64_t> live_batches{0};

  // Writer: streams the second half of the feed in 256-event batches, then
  // keeps republishing (checkpoint churn) until every reader is done, so
  // the whole measurement window sees a moving head.
  std::thread writer([&] {
    std::size_t i = warm;
    while (!stop_writer.load(std::memory_order_acquire)) {
      if (i >= feed.size()) i = warm;  // loop the live half
      const std::size_t j = std::min(feed.size(), i + 256);
      const PointSet b(feed.begin() + static_cast<std::ptrdiff_t>(i),
                       feed.begin() + static_cast<std::ptrdiff_t>(j));
      inc.advance_window(b, b.back().t - lc.window);
      i = j;
      live_batches.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Readers: each runs its own session and cycles the workload, timing the
  // full encode->serve_frame->decode round trip per query.
  std::vector<std::vector<Samples>> per_reader(
      static_cast<std::size_t>(lc.readers),
      std::vector<Samples>(kQueryKinds));
  std::atomic<std::uint64_t> decode_errors{0};
  std::atomic<std::uint64_t> error_responses{0};
  auto reader = [&](int id) {
    serve::Session session(reg, serve::SessionConfig{lc.staleness});
    auto& mine = per_reader[static_cast<std::size_t>(id)];
    for (std::size_t k = 0; k < kQueryKinds; ++k)
      mine[k].reserve(lc.queries / kQueryKinds + 1);
    for (std::size_t q = 0; q < lc.queries; ++q) {
      session.begin_request();
      const std::size_t kind = (q + static_cast<std::size_t>(id)) % kQueryKinds;
      const serve::wire::Frame& frame = workload[kind];
      util::Timer t;
      const serve::wire::Frame resp =
          serve::serve_frame(session, frame.data(), frame.size());
      const auto msg = serve::wire::decode_response(resp.data(), resp.size());
      const double sec = t.seconds();
      if (!msg) {
        decode_errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (std::holds_alternative<serve::wire::ErrorResponse>(*msg))
        error_responses.fetch_add(1, std::memory_order_relaxed);
      mine[kind].push_back(sec);
    }
  };

  util::Timer wall;
  std::vector<std::thread> threads;
  for (int r = 0; r < lc.readers; ++r) threads.emplace_back(reader, r);
  for (auto& t : threads) t.join();
  const double wall_seconds = wall.seconds();
  stop_writer.store(true, std::memory_order_release);
  writer.join();

  // Aggregate per query kind across sessions.
  util::Table t({"query", "count", "p50_us", "p99_us", "max_us"});
  Samples all;
  double p50_us_overall = 0.0, p99_us_overall = 0.0;
  for (std::size_t k = 0; k < kQueryKinds; ++k) {
    Samples s;
    for (const auto& mine : per_reader)
      s.insert(s.end(), mine[k].begin(), mine[k].end());
    all.insert(all.end(), s.begin(), s.end());
    t.row()
        .cell(kQueryNames[k])
        .cell(static_cast<std::int64_t>(s.size()))
        .cell(percentile(s, 0.50) * 1e6, 1)
        .cell(percentile(s, 0.99) * 1e6, 1)
        .cell((s.empty() ? 0.0 : *std::max_element(s.begin(), s.end())) * 1e6,
              1);
  }
  p50_us_overall = percentile(all, 0.50) * 1e6;
  p99_us_overall = percentile(all, 0.99) * 1e6;
  t.row()
      .cell("ALL")
      .cell(static_cast<std::int64_t>(all.size()))
      .cell(p50_us_overall, 1)
      .cell(p99_us_overall, 1)
      .cell((all.empty() ? 0.0 : *std::max_element(all.begin(), all.end())) *
                1e6,
            1);
  t.print(std::cout);

  const double qps = wall_seconds > 0
                         ? static_cast<double>(all.size()) / wall_seconds
                         : 0.0;
  std::cout << "\n" << all.size() << " queries in "
            << util::format_fixed(wall_seconds, 3) << " s ("
            << util::format_fixed(qps, 0) << " q/s aggregate) while the "
            << "writer published " << reg.stats().published
            << " versions (" << live_batches.load() << " live batches)\n"
            << "decode errors: " << decode_errors.load()
            << ", error responses: " << error_responses.load() << "\n";

  bench::JsonArtifact json("serve", env, cli);
  json.add_scalar("feed", "dengue");
  json.add_scalar("events", static_cast<std::int64_t>(feed.size()));
  json.add_scalar("grid", std::to_string(dims.gx) + "x" +
                              std::to_string(dims.gy) + "x" +
                              std::to_string(dims.gt));
  json.add_scalar("reader_sessions", static_cast<std::int64_t>(lc.readers));
  json.add_scalar("requests_per_session",
                  static_cast<std::int64_t>(lc.queries));
  json.add_scalar("max_staleness", static_cast<std::int64_t>(lc.staleness));
  json.add_scalar("wall_seconds", wall_seconds);
  json.add_scalar("queries_per_second", qps);
  json.add_scalar("p50_us_overall", p50_us_overall);
  json.add_scalar("p99_us_overall", p99_us_overall);
  json.add_scalar("versions_published",
                  static_cast<std::int64_t>(reg.stats().published));
  json.add_scalar("versions_rejected",
                  static_cast<std::int64_t>(reg.stats().rejected));
  json.add_scalar("live_batches",
                  static_cast<std::int64_t>(live_batches.load()));
  json.add_scalar("decode_errors",
                  static_cast<std::int64_t>(decode_errors.load()));
  json.add_scalar("error_responses",
                  static_cast<std::int64_t>(error_responses.load()));
  json.add_table("latency", t);
  json.write();
  return decode_errors.load() == 0 && error_responses.load() == 0 ? 0 : 1;
}
