// live-dengue: a writer thread feeds daily Dengue batches through the sharded
// IncrementalEstimator (2 ingest threads, 14-day sliding window, default
// drift checkpoints) into a SnapshotRegistry, while one dashboard client
// sends SKW1 refreshes through a 1-worker RequestExecutor and waits for all
// eleven answers before the next. The writer starts its next batch only
// after K refreshes completed since its last publish, so the queries per
// version are fixed without timers. The feed's 256 days bound the run.

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "core/estimator.hpp"
#include "core/incremental.hpp"
#include "dashboard.hpp"
#include "data/datasets.hpp"
#include "host.hpp"
#include "sched/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr double kExtent = 8000.0;  // 8 km city at 50 m voxels: 160 x 160
constexpr double kSres = 50.0;
constexpr int kDays = 256;
constexpr std::size_t kPerDay = 3000;
constexpr int kWindow = 14;
constexpr int kRefreshesPerVersion = 4;  // K
constexpr int kIngestThreads = 2;
constexpr int kProbeBatches = 8;  // fixed operation count of a probe

/// Daily batches of kPerDay Dengue-profile positions spread evenly within
/// the day. The generator's draws are shuffled before they are dealt into
/// days, so every day samples the same spatial mixture: the feed is
/// stationary, and a faster program that gets further into it meets more
/// of the same workload, not a different one.
std::vector<stkde::PointSet> make_feed(const stkde::DomainSpec& dom,
                                       std::uint64_t seed) {
  stkde::PointSet all = stkde::data::generate_dataset(
      stkde::data::Dataset::kDengue, dom, kPerDay * kDays, seed);
  std::mt19937_64 rng(seed ^ 0xfeedu);
  std::shuffle(all.begin(), all.end(), rng);
  std::vector<stkde::PointSet> days(kDays);
  for (int d = 0; d < kDays; ++d) {
    auto& day = days[static_cast<std::size_t>(d)];
    day.reserve(kPerDay);
    for (std::size_t i = 0; i < kPerDay; ++i) {
      stkde::Point p = all[static_cast<std::size_t>(d) * kPerDay + i];
      p.t = dom.t0 + d + (static_cast<double>(i) + 0.5) / static_cast<double>(kPerDay);
      day.push_back(p);
    }
  }
  return days;
}

}  // namespace

PhaseResult run_live(const Options& o) {
  PhaseResult out;
  const stkde::DomainSpec dom{0.0, 0.0, 0.0, kExtent, kExtent,
                              static_cast<double>(kDays), kSres, 1.0};
  const std::vector<stkde::PointSet> feed = make_feed(dom, o.seed);
  stkde::Params params;
  params.hs = 400.0;
  params.ht = 5.0;
  stkde::core::StreamConfig cfg;
  cfg.threads = kIngestThreads;
  Tracer tracer(o.trace);
  std::mt19937_64 rng(o.seed ^ 0x11feu);

  // Shared writer/client state.
  std::mutex mu;
  std::condition_variable cv;
  int completed = 0;         // refreshes completed
  int completed_at_pub = 0;  // value of `completed` at the last publish
  int head_day = kWindow - 1;
  bool stop = false;
  // Set by the publish hook, which runs on the writer thread.
  double publish_start = 0.0;
  double published_at = 0.0;

  // ---- set-up: engine, registry, pools, executor, first window ---------
  const double setup_t0 = now_s();
  stkde::core::IncrementalEstimator eng(dom, params, cfg);
  stkde::serve::SnapshotRegistry reg(dom);
  reg.set_health_source([&eng] { return eng.health(); });
  eng.set_publish_hook([&](const stkde::core::ReaderPin& pin) {
    publish_start = now_s();
    reg.publish(stkde::serve::Snapshot{pin.shared_raw(), pin.live(), pin.seq()});
    published_at = now_s();
  });
  stkde::sched::ThreadPool serve_pool(1);
  stkde::serve::RequestExecutor exec(reg, serve_pool);
  Dashboard dash(reg, exec, tracer);
  {
    stkde::PointSet boot;
    for (int d = 0; d < kWindow; ++d)
      boot.insert(boot.end(), feed[static_cast<std::size_t>(d)].begin(),
                  feed[static_cast<std::size_t>(d)].end());
    eng.advance_window(boot, dom.t0);
  }
  const bool setup_ok = reg.pin().valid();
  const double setup_s = now_s() - setup_t0;
  out.outcomes.record(setup_ok);

  // ---- writer -----------------------------------------------------------
  std::vector<double> freshness_ms, advance_ms;
  std::uint64_t request_w = 1ull << 40;  // writer request ids
  int batches = 0;
  const int batch_limit = o.phase == "probe" ? kProbeBatches : kDays - kWindow;
  double busy_s = 0.0;
  std::uint64_t events = 0;
  std::string writer_error;
  double rss_at_limit = 0.0;
  std::thread writer([&] {
    try {
      for (int d = kWindow; d < kDays && batches < batch_limit; ++d) {
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return stop || completed - completed_at_pub >= kRefreshesPerVersion; });
          if (stop) return;
        }
        const bool traced = o.trace && (batches % 2 == 1);
        const auto& batch = feed[static_cast<std::size_t>(d)];
        ++request_w;
        const int span = traced ? tracer.open("core.stream.advance", request_w) : -1;
        const double t0 = now_s();
        eng.advance_window(batch, dom.t0 + d + 1 - kWindow);
        const double t1 = now_s();
        tracer.close(span);
        if (traced) tracer.add("serve.publish", publish_start, published_at, request_w, span);
        const double fresh = (published_at - t0) * 1e3;
        {
          std::lock_guard<std::mutex> lk(mu);
          completed_at_pub = completed;
          head_day = d;
          ++batches;
          freshness_ms.push_back(fresh);
          advance_ms.push_back((t1 - t0) * 1e3);
          busy_s += t1 - t0;
          events += batch.size();
          if (batches == kProbeBatches) rss_at_limit = peak_rss_mb();
        }
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(mu);
      writer_error = e.what();
    }
    std::lock_guard<std::mutex> lk(mu);
    stop = true;
    cv.notify_all();
  });

  // ---- client (this thread) ------------------------------------------
  std::vector<double> refresh_ms, refresh_traced, refresh_untraced, ref_ms;
  const CpuTimes cpu0 = cpu_times();
  const double loop_t0 = now_s();
  double last_ref = loop_t0;
  std::uint64_t request_c = 0;
  int refreshes = 0;
  for (;;) {
    int day = 0;
    {
      std::lock_guard<std::mutex> lk(mu);
      if (stop) break;
      day = head_day;
    }
    if (o.phase != "probe" && now_s() - loop_t0 >= o.seconds) break;
    const bool traced = o.trace && (refreshes % 2 == 1);
    const auto queries = make_refresh(dom, day, 7, rng);
    const double ms = dash.refresh(queries, ++request_c, traced, out.outcomes);
    refresh_ms.push_back(ms);
    (traced ? refresh_traced : refresh_untraced).push_back(ms);
    ++refreshes;
    {
      std::lock_guard<std::mutex> lk(mu);
      ++completed;
    }
    cv.notify_all();
    if (now_s() - last_ref >= 1.0) {
      ref_ms.push_back(ref_loop_ms());
      last_ref = now_s();
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    stop = true;
  }
  cv.notify_all();
  writer.join();
  const double loop_s = now_s() - loop_t0;
  const double steal = steal_share(cpu0, cpu_times());

  // Writer batches are operations too: each one that ran counts, and a
  // thrown batch is a failure.
  for (int i = 0; i < batches; ++i) out.outcomes.record(true);
  if (!writer_error.empty()) {
    out.outcomes.record(false);
    out.report.push_back("FAIL writer: " + writer_error);
  }

  std::ostringstream hdr;
  hdr << "live-dengue: grid 160x160x" << kDays << " ("
      << num(160.0 * 160.0 * kDays * 4e-6) << " MB), " << kPerDay
      << " events/day, window " << kWindow << " days, hs 400 m, ht 5 days; "
      << kIngestThreads << " ingest threads, 1 executor worker, 1 client, K="
      << kRefreshesPerVersion;
  out.report.push_back(hdr.str());

  if (o.phase == "probe") {
    out.metrics.put("setup_s", setup_s, "s");
    out.metrics.put("peak_rss_mb", rss_at_limit > 0.0 ? rss_at_limit : peak_rss_mb(), "MB");
    if (batches < kProbeBatches) out.outcomes.record(false);
    return out;
  }

  // ---- correctness: final snapshot vs PB-SYM over the final live set ----
  const int last_day = head_day;
  stkde::PointSet live;
  for (int d = last_day + 1 - kWindow; d <= last_day; ++d)
    live.insert(live.end(), feed[static_cast<std::size_t>(d)].begin(),
                feed[static_cast<std::size_t>(d)].end());
  stkde::Params ref_params = params;
  ref_params.threads = 1;
  const double ref_t0 = now_s();
  const stkde::Result ref = stkde::Estimator(stkde::Algorithm::kPBSym, ref_params).run(live, dom);
  const double ref_ms_once = (now_s() - ref_t0) * 1e3;
  const stkde::DensityGrid snap = eng.snapshot();
  const double tol = 1e-5 * static_cast<double>(ref.grid.max_value()) + 1e-12;
  const double diff = static_cast<double>(snap.max_abs_diff(ref.grid));
  const bool live_ok = eng.live_count() == live.size() && diff <= tol;
  out.outcomes.record(live_ok);
  const stkde::core::StreamStats& st = eng.stats();
  std::ostringstream v;
  v << "correctness: final snapshot vs PB-SYM over " << live.size()
    << " live events: max|diff| " << num(diff) << " (tolerance " << num(tol)
    << "), live count " << eng.live_count() << "; " << dash.kinds_checked()
    << "/6 query kinds checked on the pinned grid; quarantined "
    << (st.quarantined_nonfinite + st.quarantined_domain + st.quarantined_stale);
  out.report.push_back(v.str());
  if (!live_ok) out.report.push_back("FAIL final snapshot differs from PB-SYM");
  for (const auto& f : dash.failures()) out.report.push_back("FAIL " + f);
  out.report.push_back("writer batches " + std::to_string(batches) + ", refreshes " +
                       std::to_string(refreshes) + " in " + num(loop_s) + " s" +
                       (last_day == kDays - 1 ? " (feed exhausted)" : ""));
  out.report.push_back(describe("freshness_ms", freshness_ms, 0, "ms"));
  out.report.push_back(describe("refresh_ms", refresh_ms, 0, "ms"));
  for (const auto& line : dash.describe_kinds()) out.report.push_back(line);
  out.report.push_back(describe("advance_ms", advance_ms, 0, "ms"));
  out.report.push_back("answered queries/s " + num(11.0 * refreshes / loop_s) +
                       ", ingested events/s " + num(static_cast<double>(events) / loop_s));

  if (!o.trace) {
    out.metrics.put("estimate_ms", median(advance_ms), "ms");
    out.metrics.put("freshness_ms.p50", median(freshness_ms), "ms");
    out.report.push_back("this process: setup " + num(setup_s) + " s, peak RSS at exit " +
                         num(peak_rss_mb()) + " MB (not gated: the probes measure both)");
    host_record(ref_ms, steal, false, out);
    return out;
  }

  // ---- per-layer metrics (traced run) ---------------------------------
  for (const char* s : {"pb_sym", "pb_tile", "dr", "dd", "pd_sched_rep"}) {
    out.metrics.put(std::string("core.estimate_ms.") + s, 0.0, "ms");
    out.metrics.put(std::string("core.compute_ms.") + s, 0.0, "ms");
    out.metrics.put(std::string("core.compute_share.") + s, 0.0, "ratio");
    out.metrics.put(std::string("grid.init_ms.") + s, 0.0, "ms");
    out.metrics.put(std::string("grid.init_gbps.") + s, 0.0, "GB/s");
    out.metrics.put(std::string("grid.init_reduce_share.") + s, 0.0, "ratio");
  }
  // The streaming core's self time: advance_window minus the registry
  // publish its hook runs inside it.
  out.metrics.put("core.stream.advance_ms.p50", median_or_zero(tracer.self_ms("core.stream.advance")), "ms");
  out.metrics.put("core.stream.events_per_busy_s",
                  busy_s > 0.0 ? static_cast<double>(events) / busy_s : 0.0, "1/s");
  out.metrics.put("core.stream.checkpoints", static_cast<double>(st.checkpoints), "count");
  out.metrics.put("core.stream.replica_tasks", static_cast<double>(st.replica_tasks), "count");
  out.metrics.put("kernels.ns_per_stamp", 0.0, "ns");
  for (const char* s : {"pb_tile", "dd", "pd_sched_rep"}) {
    out.metrics.put(std::string("kernels.table_hit_rate.") + s, 0.0, "ratio");
    out.metrics.put(std::string("kernels.table_fills.") + s, 0.0, "count");
  }
  out.metrics.put("kernels.table_hit_rate.stream",
                  st.table_lookups > 0 ? 1.0 - static_cast<double>(st.table_fills) /
                                                   static_cast<double>(st.table_lookups)
                                       : 0.0,
                  "ratio");
  out.metrics.put("kernels.table_fills.stream", static_cast<double>(st.table_fills), "count");
  out.metrics.put("grid.reduce_ms.dr", 0.0, "ms");
  // Steady state: one advance dirties every column over days
  // [d - W - Ht, d + Ht]; a double-buffered publish re-copies the hull of
  // the two latest advances.
  const stkde::GridDims gd = dom.dims();
  const std::int32_t Ht = dom.temporal_bandwidth_voxels(params.ht);
  const double hull_days = std::min<double>(gd.gt, kWindow + 2.0 * Ht + 2.0);
  out.metrics.put("grid.publish_copy_mb",
                  static_cast<double>(gd.gx) * gd.gy * hull_days * 4e-6, "MB");
  for (const char* s : {"pb_tile", "dd", "pd_sched_rep"})
    out.metrics.put(std::string("partition.bin_ms.") + s, 0.0, "ms");
  out.metrics.put("partition.replication_factor.dd", 0.0, "ratio");
  out.metrics.put("partition.min_tiles_per_wave.p2", 0.0, "count");
  out.metrics.put("partition.min_tiles_per_wave.p4", 0.0, "count");
  out.metrics.put("sched.plan_ms.pd_sched_rep", 0.0, "ms");
  out.metrics.put("sched.critical_path_ratio.pd_sched_rep", 0.0, "ratio");
  out.metrics.put("sched.busy_share.dd", 0.0, "ratio");
  out.metrics.put("sched.busy_share.pd_sched_rep", 0.0, "ratio");
  serve_layer_metrics(dash, exec.stats(), reg.stats(), out);
  if (refresh_traced.empty() || refresh_untraced.empty()) {
    out.metrics.put("trace.overhead_pct", 0.0, "%");
    out.report.push_back("trace.overhead_pct unmeasured: fewer than two refreshes ran");
  } else {
    out.metrics.put("trace.overhead_pct",
                    (median(refresh_traced) / median(refresh_untraced) - 1.0) * 100.0, "%");
  }
  host_record(ref_ms, steal, true, out);
  out.report.push_back("layers idle in this workload, reported as 0: the batch strategies' "
                       "core/grid/partition/sched metrics and kernels.ns_per_stamp "
                       "(the one PB-SYM run is the correctness reference: " +
                       num(ref_ms_once) + " ms)");
  const auto hot = dash.stages().execute_us[4];
  const double hot_ms = hot.empty() ? 0.0 : median(hot) * 1e-3;
  std::ostringstream rg;
  rg << "regime: hotspots >= half of the median refresh: "
     << (hot_ms >= 0.5 * median(refresh_ms) ? "yes" : "NO") << " (" << num(hot_ms)
     << " of " << num(median(refresh_ms)) << " ms); stream table hit rate near 0: "
     << num(st.table_lookups > 0 ? 1.0 - static_cast<double>(st.table_fills) /
                                             static_cast<double>(st.table_lookups)
                                 : 0.0);
  out.report.push_back(rg.str());
  return out;
}

}  // namespace perfbench
