// Overload bench: open-loop load against the admission-controlled
// RequestExecutor at 1x / 4x / 10x of measured capacity.
//
// Phase 1 calibrates capacity with a closed-loop run (a few synchronous
// clients, measured q/s of successful responses). Phase 2 replays the same
// mixed workload open-loop — arrivals paced by a schedule, never by the
// server — at each load multiple, and reports goodput, shed rate, and the
// p50/p99 latency of *admitted* (successfully answered) requests. Under
// overload a healthy executor sheds early with typed kOverloaded +
// retry-after; admitted-request latency must stay near the service time
// instead of growing with the arrival backlog.
//
// --json <path> writes the run as a JSON artifact (nothing is written
// without it); --smoke shrinks the feed, calibration, and per-point request
// counts for CI.
//
// The exit code reflects *structural* failures only — an undecodable
// response, a disposition-counter identity violation, queue growth past
// the configured budgets, or a success served grossly past its deadline.
// Throughput and latency ratios are reported, not asserted: this runs on
// whatever CPU CI gives it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common.hpp"
#include "core/incremental.hpp"
#include "data/datasets.hpp"
#include "sched/thread_pool.hpp"
#include "serve/admission.hpp"
#include "serve/executor.hpp"
#include "serve/snapshot_registry.hpp"
#include "serve/wire.hpp"
#include "util/timer.hpp"

using namespace stkde;
namespace w = serve::wire;

namespace {

struct LoadConfig {
  int days = 30;
  double window = 10.0;
  std::size_t per_day = 1500;
  double extent = 4000.0;            // meters; 50 m voxels
  int closed_clients = 4;            // calibration clients (2 per worker)
  double calibrate_seconds = 1.5;
  double point_seconds = 2.5;         // offered window per load point
  std::size_t max_requests = 250000;  // per-point cap on the open-loop schedule
  std::chrono::milliseconds deadline{250};
};

/// Milliseconds, admitted requests only.
using Samples = std::vector<double>;

double percentile(Samples s, double p) {
  if (s.empty()) return 0.0;
  std::sort(s.begin(), s.end());
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(s.size() - 1) + 0.5);
  return s[std::min(idx, s.size() - 1)];
}

/// The mixed workload, weighted so cheap point probes dominate the way a
/// dashboard's traffic does, with a steady tail of expensive extractions:
/// 4 density_at : 2 region_sum : 1 region_max : 2 slice : 1 hotspots :
/// 1 region_grid.
std::vector<w::Frame> make_mix(const DomainSpec& dom) {
  const GridDims dims = dom.dims();
  const Extent3 mid{dims.gx / 4, 3 * dims.gx / 4, dims.gy / 4,
                    3 * dims.gy / 4, dims.gt - 16, dims.gt - 2};
  const Extent3 patch{dims.gx / 2 - 4, dims.gx / 2 + 4, dims.gy / 2 - 4,
                      dims.gy / 2 + 4, dims.gt - 10, dims.gt - 4};
  const w::Frame density = w::encode(w::QueryMessage{w::DensityAtQuery{
      Point{dom.x0 + dom.gx / 2, dom.y0 + dom.gy / 2, dom.t0 + dom.gt - 5}}});
  const w::Frame sum =
      w::encode(w::QueryMessage{w::RegionQuery{mid, w::RegionOp::kSum}});
  const w::Frame max =
      w::encode(w::QueryMessage{w::RegionQuery{mid, w::RegionOp::kMax}});
  const w::Frame slice = w::encode(w::QueryMessage{w::SliceQuery{dims.gt - 6}});
  const w::Frame hotspots =
      w::encode(w::QueryMessage{w::HotspotsQuery{4, 0.99}});
  const w::Frame grid = w::encode(w::QueryMessage{w::RegionGridQuery{patch}});
  return {density, density, density, density, sum,  sum,
          max,     slice,   slice,   hotspots, grid};
}

/// One open-loop load point.
struct PointResult {
  double offered_qps = 0.0;   // what the pacer actually achieved
  double wall_seconds = 0.0;  // first submit -> last response resolved
  std::size_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;      // kDeadlineExceeded answers
  std::uint64_t unavailable = 0;
  std::uint64_t other_error = 0;  // kInternal / kBadArgument / ...
  std::uint64_t undecodable = 0;  // structural failure
  std::uint64_t late_served = 0;  // success observed >1 s past the deadline
  Samples admitted_ms;
  serve::ExecutorStats stats;
  bool identity_ok = false;
};

/// Closed-loop capacity probe: \p clients synchronous clients cycling the
/// mix, each with one request in flight. Returns successful q/s.
double calibrate(const serve::SnapshotRegistry& reg, sched::ThreadPool& pool,
                 const serve::ExecutorConfig& cfg,
                 const std::vector<w::Frame>& mix, int clients,
                 double seconds) {
  serve::RequestExecutor exec(reg, pool, cfg);
  std::atomic<std::uint64_t> ok{0};
  util::Timer wall;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      std::size_t i = static_cast<std::size_t>(c);
      while (std::chrono::steady_clock::now() < until) {
        const w::Frame& f = mix[i++ % mix.size()];
        const w::Frame resp = exec.submit(f.data(), f.size(), 0).get();
        const auto msg = w::decode_response(resp.data(), resp.size());
        if (msg && !std::holds_alternative<w::ErrorResponse>(*msg))
          ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto& t : threads) t.join();
  const double elapsed = wall.seconds();
  return elapsed > 0 ? static_cast<double>(ok.load()) / elapsed : 0.0;
}

/// One open-loop point: submit \p n requests on a fixed arrival schedule at
/// \p rate_qps, resolving responses concurrently so late answers never slow
/// the pacer down. A poller discovers resolved futures at ~200 us
/// granularity — coarse against microsecond service times but shared by
/// every load point, so the p99 ratios stay comparable.
PointResult run_point(const serve::SnapshotRegistry& reg,
                      sched::ThreadPool& pool,
                      const serve::ExecutorConfig& cfg,
                      const std::vector<w::Frame>& mix, double rate_qps,
                      std::size_t n) {
  serve::RequestExecutor exec(reg, pool, cfg);
  struct Shot {
    std::chrono::steady_clock::time_point t0;
    std::future<w::Frame> fut;
  };
  std::vector<Shot> shots(n);
  std::atomic<std::size_t> submitted{0};
  std::atomic<bool> submit_done{false};

  PointResult res;
  res.submitted = n;
  res.admitted_ms.reserve(n);
  const double deadline_ms =
      static_cast<double>(cfg.session.request_deadline.count());

  std::thread poller([&] {
    std::vector<std::size_t> outstanding;
    std::size_t seen = 0;
    const auto classify = [&](std::size_t i) {
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - shots[i].t0)
                            .count();
      const w::Frame resp = shots[i].fut.get();
      const auto msg = w::decode_response(resp.data(), resp.size());
      if (!msg) {
        ++res.undecodable;
        return;
      }
      if (const auto* e = std::get_if<w::ErrorResponse>(&*msg)) {
        switch (e->code) {
          case w::ErrorCode::kOverloaded: ++res.shed; break;
          case w::ErrorCode::kDeadlineExceeded: ++res.expired; break;
          case w::ErrorCode::kUnavailable: ++res.unavailable; break;
          default: ++res.other_error; break;
        }
        return;
      }
      ++res.completed;
      // The served-response invariant, observed from the client: a success
      // grossly past the deadline (1 s of grace for poller + scheduler
      // noise) means the executor served an expired result.
      if (ms > deadline_ms + 1000.0) ++res.late_served;
      res.admitted_ms.push_back(ms);
    };
    for (;;) {
      const std::size_t cur = submitted.load(std::memory_order_acquire);
      while (seen < cur) outstanding.push_back(seen++);
      for (std::size_t k = 0; k < outstanding.size();) {
        if (shots[outstanding[k]].fut.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          classify(outstanding[k]);
          outstanding[k] = outstanding.back();
          outstanding.pop_back();
        } else {
          ++k;
        }
      }
      if (submit_done.load(std::memory_order_acquire) && outstanding.empty() &&
          seen == submitted.load(std::memory_order_acquire))
        break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // The pacer: arrivals follow the schedule, not the server. When the
  // server falls behind, requests keep coming — that is the point.
  util::Timer wall;
  const auto start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> interval{1.0 / rate_qps};
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    interval * static_cast<double>(i)));
    const w::Frame& f = mix[i % mix.size()];
    shots[i].t0 = std::chrono::steady_clock::now();
    shots[i].fut = exec.submit(f.data(), f.size(), 1 + (i % 7));
    submitted.store(i + 1, std::memory_order_release);
  }
  const double submit_span = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  submit_done.store(true, std::memory_order_release);
  poller.join();
  res.wall_seconds = wall.seconds();
  res.offered_qps =
      submit_span > 0 ? static_cast<double>(n) / submit_span : 0.0;

  exec.drain();  // counters land after promises resolve; drain orders them
  res.stats = exec.stats();
  const serve::ExecutorStats& st = res.stats;
  res.identity_ok =
      st.submitted == st.malformed + st.health_inline + st.shed +
                          st.rejected_shutdown + st.expired_at_dequeue +
                          st.expired_result + st.cancelled_inflight +
                          st.failed + st.completed;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const bench::BenchEnv env = bench::bench_env(cli);
  bench::print_banner("Overload — admission control under open-loop load",
                      env);

  LoadConfig lc;
  if (cli.smoke) {
    lc.days = 16;
    lc.per_day = 600;
    lc.extent = 3000.0;
    lc.calibrate_seconds = 0.4;
    lc.point_seconds = 0.8;
    lc.max_requests = 60000;
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

  core::StreamConfig scfg;
  scfg.threads = 2;
  core::IncrementalEstimator inc(city, params, scfg);
  serve::SnapshotRegistry reg(inc);
  {
    // Ingest the whole feed up front: this bench measures the executor's
    // overload policy, not writer contention (bench_serve covers that).
    std::size_t i = 0;
    while (i < feed.size()) {
      const std::size_t j = std::min(feed.size(), i + 512);
      const PointSet b(feed.begin() + static_cast<std::ptrdiff_t>(i),
                       feed.begin() + static_cast<std::ptrdiff_t>(j));
      inc.advance_window(b, b.back().t - lc.window);
      i = j;
    }
  }

  const GridDims dims = city.dims();
  const int workers = std::max(2, env.real_threads);
  sched::ThreadPool pool(static_cast<std::size_t>(workers));

  serve::ExecutorConfig cfg;
  cfg.admission.budgets = {serve::ClassBudget{2, 16}, serve::ClassBudget{2, 8},
                           serve::ClassBudget{1, 4}};
  cfg.session.request_deadline = lc.deadline;
  const std::size_t queue_cap = 16 + 8 + 4;

  // Two closed-loop clients per worker: enough concurrency to keep every
  // worker busy, little enough that the measurement reflects sustainable
  // service rate rather than burst dequeue of a pre-stacked queue.
  lc.closed_clients = 2 * workers;

  const std::vector<w::Frame> mix = make_mix(city);
  std::cout << "dengue feed: " << feed.size() << " events, grid " << dims.gx
            << "x" << dims.gy << "x" << dims.gt << "; pool " << workers
            << " workers, deadline " << lc.deadline.count()
            << " ms, budgets cheap 2/16 medium 2/8 expensive 1/4\n\n";

  const double capacity =
      calibrate(reg, pool, cfg, mix, lc.closed_clients, lc.calibrate_seconds);
  std::cout << "calibrated capacity (closed loop, " << lc.closed_clients
            << " clients): " << util::format_fixed(capacity, 0) << " q/s\n\n";
  if (capacity <= 0.0) {
    std::cerr << "calibration served zero successful requests\n";
    return 1;
  }

  const double multiples[] = {1.0, 4.0, 10.0};
  util::Table t({"load", "offered_qps", "submitted", "completed",
                 "goodput_qps", "shed", "shed_rate", "expired", "p50_ms",
                 "p99_ms", "queue_hw"});
  std::vector<PointResult> points;
  bool structural_ok = true;
  double p99_baseline = 0.0;
  for (const double mult : multiples) {
    const double rate = mult * capacity;
    const std::size_t n = std::min(
        lc.max_requests,
        std::max<std::size_t>(200,
                              static_cast<std::size_t>(rate * lc.point_seconds)));
    PointResult res = run_point(reg, pool, cfg, mix, rate, n);
    const double goodput = res.wall_seconds > 0
                               ? static_cast<double>(res.completed) /
                                     res.wall_seconds
                               : 0.0;
    const double shed_rate =
        static_cast<double>(res.shed) / static_cast<double>(res.submitted);
    const double p50 = percentile(res.admitted_ms, 0.50);
    const double p99 = percentile(res.admitted_ms, 0.99);
    if (mult == 1.0) p99_baseline = p99;
    t.row()
        .cell(util::format_fixed(mult, 0) + "x")
        .cell(res.offered_qps, 0)
        .cell(static_cast<std::int64_t>(res.submitted))
        .cell(static_cast<std::int64_t>(res.completed))
        .cell(goodput, 0)
        .cell(static_cast<std::int64_t>(res.shed))
        .cell(shed_rate, 3)
        .cell(static_cast<std::int64_t>(res.expired))
        .cell(p50, 2)
        .cell(p99, 2)
        .cell(static_cast<std::int64_t>(res.stats.queue_high_water));
    if (res.undecodable > 0 || res.late_served > 0 || !res.identity_ok ||
        res.stats.queue_high_water > queue_cap) {
      structural_ok = false;
      std::cerr << "structural failure at " << mult
                << "x: undecodable=" << res.undecodable
                << " late_served=" << res.late_served
                << " identity_ok=" << res.identity_ok
                << " queue_high_water=" << res.stats.queue_high_water
                << " (cap " << queue_cap << ")\n";
    }
    points.push_back(std::move(res));
  }
  t.print(std::cout);

  const PointResult& peak = points.back();
  const double p99_peak = percentile(peak.admitted_ms, 0.99);
  const double p99_ratio = p99_baseline > 0 ? p99_peak / p99_baseline : 0.0;
  const double goodput_peak =
      peak.wall_seconds > 0
          ? static_cast<double>(peak.completed) / peak.wall_seconds
          : 0.0;
  std::cout << "\n10x p99 / 1x p99 = " << util::format_fixed(p99_ratio, 2)
            << "; 10x goodput = "
            << util::format_fixed(goodput_peak / capacity * 100.0, 1)
            << "% of capacity; 10x shed breakdown: budget="
            << peak.stats.admission.shed_budget
            << " deadline=" << peak.stats.admission.shed_deadline
            << " session=" << peak.stats.admission.shed_session
            << " stalled=" << peak.stats.admission.shed_stalled << "\n";

  bench::JsonArtifact json("overload", env, cli);
  json.add_scalar("feed", "dengue");
  json.add_scalar("events", static_cast<std::int64_t>(feed.size()));
  json.add_scalar("grid", std::to_string(dims.gx) + "x" +
                              std::to_string(dims.gy) + "x" +
                              std::to_string(dims.gt));
  json.add_scalar("pool_workers", static_cast<std::int64_t>(workers));
  json.add_scalar("deadline_ms",
                  static_cast<std::int64_t>(lc.deadline.count()));
  json.add_scalar("budgets", "cheap 2/16, medium 2/8, expensive 1/4");
  json.add_scalar("capacity_qps", capacity);
  json.add_scalar("p99_ratio_10x_over_1x", p99_ratio);
  json.add_scalar("goodput_10x_fraction_of_capacity",
                  capacity > 0 ? goodput_peak / capacity : 0.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& r = points[i];
    const std::string prefix =
        util::format_fixed(multiples[i], 0) + "x_";
    json.add_scalar(prefix + "offered_qps", r.offered_qps);
    json.add_scalar(prefix + "completed",
                    static_cast<std::int64_t>(r.completed));
    json.add_scalar(prefix + "shed", static_cast<std::int64_t>(r.shed));
    json.add_scalar(prefix + "expired", static_cast<std::int64_t>(r.expired));
    json.add_scalar(prefix + "p50_ms", percentile(r.admitted_ms, 0.50));
    json.add_scalar(prefix + "p99_ms", percentile(r.admitted_ms, 0.99));
    json.add_scalar(prefix + "queue_high_water",
                    static_cast<std::int64_t>(r.stats.queue_high_water));
  }
  json.add_table("load_points", t);
  json.write();
  return structural_ok ? 0 : 1;
}
