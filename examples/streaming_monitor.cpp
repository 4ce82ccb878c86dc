// Streaming outbreak monitor: incremental STKDE over a sliding time window.
// The paper motivates STKDE with *timely* epidemic monitoring; this example
// shows the streaming engine ingesting a live feed in daily batches on a
// worker pool, retiring events older than the window — out-of-order
// deliveries included — and flagging emerging hotspots, at per-batch cost
// proportional to the batch, not the history. A dashboard thread probes the
// published density concurrently with ingestion and never sees a
// half-applied batch.
//
// Robustness is part of the tour: the simulated feed contains malformed
// reports (NaN coordinates, impossible positions, weeks-stale records) that
// admission quarantines instead of folding into the density; every batch is
// WAL-logged with periodic durable checkpoints, and after the run a fresh
// estimator recovers the full live state from disk — the operational drill
// for a monitor process that dies mid-outbreak. Finally a serve-layer
// session keeps answering (tagged degraded) while the writer stalls.
//
//   $ ./streaming_monitor [--days 60] [--window 14] [--per-day 400]
//                         [--threads 4] [--late-frac 10]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <limits>
#include <thread>

#include "analysis/clusters.hpp"
#include "core/durability.hpp"
#include "core/incremental.hpp"
#include "data/datasets.hpp"
#include "geom/voxel_mapper.hpp"
#include "serve/session.hpp"
#include "serve/snapshot_registry.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace stkde;

int main(int argc, char** argv) {
  const util::CommandLine args(argc, argv,
                               "[--days 60] [--window 14] [--per-day 400] "
                               "[--threads 4] [--late-frac 10]");
  const int days = args.get("days", 60);
  const double window = args.get("window", 14.0);
  const auto per_day = static_cast<std::size_t>(args.get("per-day", 400L));
  const int threads = static_cast<int>(args.get("threads", 4L));
  const auto late_pct = static_cast<std::uint64_t>(args.get("late-frac", 10L));

  // A city at 50 m resolution, daily time slices.
  const DomainSpec city{0, 0, 0, 8000.0, 8000.0, static_cast<double>(days),
                        50.0, 1.0};
  Params params;
  params.hs = 400.0;
  params.ht = 5.0;
  core::StreamConfig cfg;
  cfg.threads = threads;
  // Durable state: WAL every batch, checkpoint every ~2 days of events, so
  // a crashed monitor restarts from disk instead of replaying the feed.
  const std::string state_dir =
      (std::filesystem::temp_directory_path() / "stkde_monitor_state")
          .string();
  std::filesystem::create_directories(state_dir);
  core::DurableLog::reset_dir(state_dir);
  cfg.durability.dir = state_dir;
  cfg.durability.checkpoint_events = per_day * 2;
  core::IncrementalEstimator monitor(city, params, cfg);
  const VoxelMapper map(city);

  // Serve layer on top of the same estimator: sessions pin published
  // versions and carry a writer-stall detector (demo after the feed).
  serve::SnapshotRegistry registry(monitor);
  serve::SessionConfig scfg;
  scfg.stall_after = std::chrono::milliseconds{150};
  serve::Session session(registry, scfg);

  // Simulate the full feed once (clustered + seasonal), then deliver it in
  // daily batches. Real surveillance feeds report a fraction of cases days
  // late; model that by delaying ~late_pct% of events two days, so batches
  // arrive out of timestamp order — the time-bucketed retirement index
  // still expires them when their *timestamp* leaves the window.
  PointSet feed = data::generate_dataset(data::Dataset::kDengue, city,
                                         per_day * static_cast<std::size_t>(days),
                                         99);
  std::sort(feed.begin(), feed.end(),
            [](const Point& a, const Point& b) { return a.t < b.t; });
  util::SplitMix64 rng(7);
  std::vector<double> delivery(feed.size());
  for (std::size_t i = 0; i < feed.size(); ++i) {
    // Clamp into the final day so tail events still arrive before the
    // monitor stops (they'd otherwise be dropped, desyncing the counts).
    const double d = feed[i].t + (rng.next() % 100 < late_pct ? 2.0 : 0.0);
    delivery[i] = std::min(d, static_cast<double>(days) - 1e-9);
  }
  // Event ids in delivery order, so each day's batch is one cursor advance.
  std::vector<std::size_t> arrival(feed.size());
  for (std::size_t i = 0; i < arrival.size(); ++i) arrival[i] = i;
  std::sort(arrival.begin(), arrival.end(),
            [&](std::size_t a, std::size_t b) { return delivery[a] < delivery[b]; });

  std::cout << "streaming monitor: " << feed.size() << " events over " << days
            << " days (" << late_pct << "% reported 2 days late), " << window
            << "-day window, " << threads << " ingest thread(s), grid "
            << city.dims().gx << "x" << city.dims().gy << "x" << city.dims().gt
            << "\n\n";

  // Dashboard: a reader thread polling the published density while batches
  // are being ingested (the double-buffered snapshot contract).
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> probes{0};
  std::thread dashboard([&] {
    const Voxel center{city.dims().gx / 2, city.dims().gy / 2,
                       city.dims().gt / 2};
    while (!stop.load(std::memory_order_acquire)) {
      (void)monitor.density_at(center);
      (void)monitor.live_count();
      probes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  util::Table t({"day", "live events", "retired", "batch ms", "peak density",
                 "hotspots", "top hotspot (x m, y m)"});
  util::RunningStats batch_ms;
  std::size_t retired_total = 0;
  std::size_t cursor = 0;
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (int day = 0; day < days; ++day) {
    PointSet batch;
    while (cursor < arrival.size() && delivery[arrival[cursor]] < day + 1.0)
      batch.push_back(feed[arrival[cursor++]]);
    // Real surveillance feeds carry garbage. Every 15th day, slip in a
    // report with no coordinates, one geocoded to another continent, and
    // one weeks out of date — admission quarantines all three.
    if ((day + 1) % 15 == 0) {
      batch.push_back({kNan, kNan, static_cast<double>(day)});
      batch.push_back({1e6, 1e6, static_cast<double>(day)});
      if (day - window - 3.0 > 0.0)
        batch.push_back({4000.0, 4000.0, day - window - 3.0});
    }
    util::Timer timer;
    retired_total += monitor.advance_window(batch, day + 1.0 - window);
    const double ms = timer.millis();
    batch_ms.add(ms);

    if ((day + 1) % 10 == 0) {
      const DensityGrid snap = monitor.snapshot();
      const float thr = analysis::density_quantile(snap, 0.995);
      const auto clusters = analysis::extract_clusters(snap, thr);
      std::string where = "-";
      if (!clusters.empty()) {
        const Point c = map.center_of(clusters[0].peak_voxel);
        // Built with += : operator+(const char*, string&&) trips GCC 12's
        // -Wrestrict false positive (PR105329) under -Werror.
        where = "(";
        where += util::format_fixed(c.x, 0);
        where += ", ";
        where += util::format_fixed(c.y, 0);
        where += ")";
      }
      t.row()
          .cell(day + 1)
          .cell(static_cast<std::uint64_t>(monitor.live_count()))
          .cell(static_cast<std::uint64_t>(retired_total))
          .cell(ms, 2)
          .cell(static_cast<double>(snap.max_value()), 8)
          .cell(static_cast<std::uint64_t>(clusters.size()))
          .cell(where);
    }
  }
  stop.store(true, std::memory_order_release);
  dashboard.join();
  t.print(std::cout);

  const auto& st = monitor.stats();
  std::cout << "\nmean per-batch update: " << batch_ms.mean() << " ms (max "
            << batch_ms.max()
            << " ms) — independent of history length; a full recompute "
               "would touch the whole grid every day.\n"
            << "engine: " << st.added << " added, " << st.retired
            << " retired (" << st.dead_on_arrival << " dead on arrival), "
            << st.replica_tasks << " replica tasks, " << st.checkpoints
            << " drift checkpoints, " << st.publishes
            << " published snapshots; dashboard made " << probes.load()
            << " concurrent probes.\n";

  // Robustness counters: what admission refused (and why), and what the
  // durability layer wrote. The same numbers ride the kHealthResponse wire
  // message, so a remote operator sees them without shell access.
  const core::EngineHealth health = monitor.health();
  std::cout << "quarantine: " << health.quarantined_total()
            << " events refused (" << health.quarantined_nonfinite
            << " non-finite, " << health.quarantined_domain
            << " out-of-domain, " << health.quarantined_stale << " stale), "
            << health.quarantine_dropped << " evicted from the ring.\n";
  for (const core::QuarantinedEvent& q : monitor.quarantine()) {
    const char* why = q.reason == core::QuarantineReason::kNonFinite
                          ? "non-finite"
                          : q.reason == core::QuarantineReason::kOutOfDomain
                                ? "out-of-domain"
                                : "stale";
    std::cout << "  quarantined (" << why << "): (" << q.point.x << ", "
              << q.point.y << ", t=" << q.point.t << ")\n";
  }
  std::cout << "durability: " << st.wal_records << " WAL records, "
            << st.durable_checkpoints << " durable checkpoints in "
            << state_dir << "\n";

  // Writer stall: the feed goes quiet past the session's stall_after
  // budget. The session keeps serving from its last-good pin, tagged
  // kDegraded so dashboards can show "data as of day N" instead of dying.
  std::this_thread::sleep_for(std::chrono::milliseconds{250});
  const serve::BeginResult stalled = session.begin_request();
  const Point probe{4000.0, 4000.0, days - 0.5};
  std::cout << "\nwriter stalled: session state="
            << (stalled.state == serve::SessionState::kDegraded ? "degraded"
                                                                : "fresh")
            << " at version " << stalled.version
            << ", still answering: density_at(4000,4000)="
            << session.density_at(probe) << "\n";
  monitor.add({{4000.0, 4000.0, days - 0.5}});  // feed resumes
  const serve::BeginResult resumed = session.begin_request();
  std::cout << "feed resumed:   session state="
            << (resumed.state == serve::SessionState::kFresh ? "fresh"
                                                             : "degraded")
            << " at version " << resumed.version << "\n";

  // Recovery drill: the monitor process "dies" (we abandon the estimator)
  // and a fresh one rebuilds the live window from the durable state —
  // checkpoint first, then the WAL tail.
  core::StreamConfig rcfg;
  rcfg.threads = threads;
  rcfg.durability.dir = state_dir;
  core::IncrementalEstimator restarted(city, params, rcfg);
  util::Timer rt;
  const core::RecoverReport rep = restarted.recover();
  std::cout << "\nrecovery drill: restored "
            << (rep.checkpoint_loaded ? "checkpoint + " : "")
            << rep.batches_replayed << " WAL batches ("
            << rep.events_replayed << " events) in " << rt.millis()
            << " ms; live " << restarted.live_count() << " vs "
            << monitor.live_count()
            << " in the lost process; resume feeding at batch "
            << rep.last_batch_seq + 1 << ".\n";
  return 0;
}
