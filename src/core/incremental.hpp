#pragma once
/// \file incremental.hpp
/// Incremental / streaming STKDE — the near-real-time motivation of the
/// paper's introduction taken to its conclusion: surveillance feeds append
/// events continuously, and sliding-window analyses retire old ones.
///
/// Density is a sum over events, so the volume updates by scattering new
/// cylinders (+) and the retired ones (-) — Theta(delta * Hs^2 Ht) per
/// update instead of a full recompute. The estimator keeps the *raw*
/// (unnormalized) sum; normalization by the live event count happens on
/// read, so adds/removes don't rescale the whole grid.
///
/// Streaming engine (docs/STREAMING.md):
///  - Live events are tracked in a *time-bucketed index* (buckets of ht
///    time units, one kernel support), so advance_window() retires
///    every event with t < cutoff regardless of arrival order — late
///    (out-of-order) arrivals are retired when their *timestamp* expires,
///    not when they happen to reach the front of an arrival queue — and
///    remove() locates an event by its time bucket instead of scanning the
///    whole window.
///  - Every batch, at every thread count, is one pass of the PB-TILE
///    scatter engine (core/detail/tile_scatter.hpp), planned on this grid:
///    points are binned onto spatial tiles and Morton-sorted per tile. One
///    thread walks the tiles serially; StreamConfig::threads > 1 runs them
///    on a persistent sched::ThreadPool in four parity waves over the
///    finest 2Hs-wide tiling (the PD strategy), after a pre-wave that splits
///    hotspot tiles across replica tasks writing private halo buffers (the
///    PD-REP strategy applied to streaming). Spatial tables come from a
///    sub-voxel-offset cache the engine keeps across batches: surveillance
///    feeds are recorded at fixed resolution, so later batches hit the
///    tables earlier ones filled (stats().table_lookups/table_fills).
///  - Readers (snapshot()/density_at()/live_count()) see *published*
///    double-buffered states: the writer mutates a private staging grid and
///    publishes an immutable copy after each batch, so a concurrent reader
///    never observes a half-applied batch.
///  - Because +/- float scatter accumulates cancellation error over long
///    streams, the engine periodically rebuilds the staging grid from the
///    live set (a drift-control checkpoint, StreamConfig::checkpoint_retires).
///
/// Threading contract: one writer thread calls add()/remove()/
/// advance_window()/checkpoint(); any number of reader threads may call
/// snapshot()/density_at()/live_count() concurrently with the writer.
/// raw()/stats() are writer-side views and are not synchronized.
///
/// Failure contract: if a batch's scatter throws partway (e.g. a replica
/// halo allocation exceeds the memory budget), the staging grid is rebuilt
/// by a plain per-point loop from the live index (counted in
/// stats().recoveries) and the exception propagates. The engine stays
/// consistent — grid, index, and stats() always agree: additions not yet
/// recorded in the index are discarded; retirements/removals already
/// recorded remain in effect.
/// Readers keep the last published snapshot until the next successful
/// operation publishes again.
///
/// Crash contract (docs/ROBUSTNESS.md): a util::InjectedCrash — the chaos
/// suite's simulated process death — *poisons* the estimator: every later
/// writer-side operation throws std::logic_error, readers keep the last
/// published snapshot, and the stream continues only through a fresh
/// estimator calling recover() against the durable state
/// (StreamConfig::durability): the last durable checkpoint plus a WAL
/// replay. Each batch is logged *after* its in-memory commit point with a
/// monotone sequence number, so recover() reports last_batch_seq and an
/// at-least-once feeder resumes from the next batch without duplicating
/// any applied one.
///
/// Admission: incoming events with non-finite
/// coordinates, positions farther than one bandwidth (hs spatially, ht
/// temporally) outside the domain box — which cannot touch any voxel — or
/// timestamps older than the current window cutoff are never scattered;
/// they land in a bounded quarantine ring with per-reason counters instead
/// of corrupting the density.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/durability.hpp"
#include "core/result.hpp"
#include "geom/domain.hpp"
#include "geom/point.hpp"
#include "geom/voxel_mapper.hpp"
#include "grid/dense_grid.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace stkde::sched {
class ThreadPool;
}

namespace stkde::core::detail {
class StampScratches;
}

namespace stkde::core {

/// Streaming-engine knobs. The defaults give the single-threaded engine.
/// The tiling, the hotspot split, the retirement bucket (ht) and the
/// admission margin (one bandwidth) are not knobs: every batch is planned
/// by the tile engine from Params::tile and threads.
struct StreamConfig {
  /// Ingest worker threads; <= 1 runs scatter in the calling thread.
  int threads = 1;

  /// Rebuild the grid from the live set after this many retired/removed
  /// events (bounds +/- cancellation drift). 0 disables checkpoints.
  std::uint64_t checkpoint_retires = std::uint64_t{1} << 20;

  /// Capacity of the quarantine ring; the oldest entry is evicted (and
  /// counted in stats().quarantine_dropped) when full.
  std::size_t quarantine_capacity = 256;

  /// WAL + durable checkpoints (core/durability.hpp); dir empty = off.
  DurabilityConfig durability;
};

/// Writer-side counters (diagnostics for benches and dashboards).
///
/// Ordering contract: plain fields, no atomics — StreamStats belongs to
/// the ingest thread alone. Reader threads must never touch it; the
/// reader-safe mirror is EngineHealth via health(), whose atomics carry
/// the cross-thread contract (see HealthAtomics).
struct StreamStats {
  std::uint64_t batches = 0;          ///< add/remove/advance calls
  std::uint64_t added = 0;            ///< events scattered with + sign
  std::uint64_t retired = 0;          ///< events retired by advance_window
  std::uint64_t dead_on_arrival = 0;  ///< incoming events already past cutoff
  std::uint64_t removed = 0;          ///< events removed via remove()
  std::uint64_t remove_misses = 0;    ///< remove() requests never tracked
  std::uint64_t checkpoints = 0;      ///< drift-control full rebuilds
  std::uint64_t recoveries = 0;       ///< rollbacks after a failed apply
  std::uint64_t replica_tasks = 0;    ///< hotspot replica tasks spawned
  std::uint64_t publishes = 0;        ///< snapshot states published
  std::uint64_t table_lookups = 0;    ///< tile-engine table-cache probes
  std::uint64_t table_fills = 0;      ///< probes that computed a table
  std::uint64_t quarantined_nonfinite = 0;  ///< NaN/Inf coordinates refused
  std::uint64_t quarantined_domain = 0;     ///< beyond-margin positions
  std::uint64_t quarantined_stale = 0;      ///< older than the window cutoff
  std::uint64_t quarantine_dropped = 0;     ///< ring evictions (overflow)
  std::uint64_t wal_records = 0;            ///< batches logged to the WAL
  std::uint64_t durable_checkpoints = 0;    ///< checkpoint files committed
  std::uint64_t replayed_batches = 0;       ///< WAL records replayed
};

/// Why an incoming event was refused at admission.
enum class QuarantineReason : std::uint8_t {
  kNonFinite = 0,    ///< NaN or Inf coordinate
  kOutOfDomain = 1,  ///< beyond one bandwidth off the box
  kStale = 2,        ///< timestamp older than the current window cutoff
};

/// One quarantined event (inspectable via quarantine()).
struct QuarantinedEvent {
  Point point{};
  QuarantineReason reason = QuarantineReason::kNonFinite;
};

/// Reader-safe robustness counters: unlike StreamStats (a writer-side
/// view), these are atomics mirrored on every mutation, so the serve
/// layer's health endpoint can read them while ingest is running.
///
/// Ordering contract: this is a *value snapshot* filled from the engine's
/// HealthAtomics with relaxed loads. Each counter is independently
/// monotone; fields may reflect slightly different instants of the same
/// ingest run, and nothing here orders or publishes the density data
/// itself (that is live_published_'s acquire/release pair). Treat the
/// struct as dashboard telemetry, not as a synchronization point.
struct EngineHealth {
  std::uint64_t quarantined_nonfinite = 0;
  std::uint64_t quarantined_domain = 0;
  std::uint64_t quarantined_stale = 0;
  std::uint64_t quarantine_dropped = 0;
  std::uint64_t wal_records = 0;  ///< appended by this incarnation
  std::uint64_t wal_synced = 0;   ///< of those, known fsynced
  std::uint64_t durable_checkpoints = 0;
  bool poisoned = false;

  [[nodiscard]] std::uint64_t quarantined_total() const {
    return quarantined_nonfinite + quarantined_domain + quarantined_stale;
  }
  /// Batches that would replay (not yet folded into a checkpoint or
  /// fsynced); the health message's "WAL lag".
  [[nodiscard]] std::uint64_t wal_lag() const {
    return wal_records - wal_synced;
  }
};

/// What recover() reconstructed (see the crash contract above).
struct RecoverReport {
  bool checkpoint_loaded = false;     ///< a durable checkpoint was restored
  std::uint64_t batches_replayed = 0; ///< WAL records applied after it
  std::uint64_t events_replayed = 0;  ///< points inside those records
  std::uint64_t skipped_records = 0;  ///< stale (pre-checkpoint) records
  std::uint64_t last_batch_seq = 0;   ///< resume feeding from +1
  bool wal_torn = false;              ///< a torn tail was truncated
  std::uint64_t truncated_bytes = 0;
};

/// A pinned, immutable published state. Every read through one ReaderPin
/// sees the same version: the raw grid, live count, and sequence number
/// were all published together, so multi-read "requests" (two probes, a
/// probe plus a snapshot, ...) cannot straddle a concurrent publish the way
/// repeated IncrementalEstimator::density_at() calls can. Pins are cheap
/// (one shared_ptr copy) and keep their buffer alive until dropped — the
/// serve layer's consistency unit (serve/snapshot_registry.hpp).
class ReaderPin {
 public:
  ReaderPin() = default;

  /// False until the estimator has published at least once.
  [[nodiscard]] bool valid() const { return raw_ != nullptr; }

  /// Publish sequence number of the pinned state (0 when invalid).
  [[nodiscard]] std::uint64_t seq() const { return seq_; }

  /// Live event count of the pinned state (the density normalizer).
  [[nodiscard]] std::size_t live() const { return live_; }

  /// The pinned raw (unnormalized) grid; valid() must be true. The shared
  /// pointer may outlive the estimator.
  [[nodiscard]] const DensityGrid& raw() const { return *raw_; }
  [[nodiscard]] const std::shared_ptr<const DensityGrid>& shared_raw() const {
    return raw_;
  }

  /// 1/n normalization factor of the pinned state (0 for an empty stream).
  [[nodiscard]] double norm() const {
    return live_ > 0 ? 1.0 / static_cast<double>(live_) : 0.0;
  }

  /// Normalized density at one voxel of the pinned state; voxels outside
  /// the grid (and invalid pins) read as 0.
  [[nodiscard]] float density_at(const Voxel& v) const {
    if (!raw_ || live_ == 0 || !raw_->extent().contains(v.x, v.y, v.t))
      return 0.0f;
    return static_cast<float>(static_cast<double>(raw_->at(v.x, v.y, v.t)) *
                              norm());
  }

 private:
  friend class IncrementalEstimator;
  std::shared_ptr<const DensityGrid> raw_;
  std::size_t live_ = 0;
  std::uint64_t seq_ = 0;
};

class IncrementalEstimator {
 public:
  /// Single-threaded engine (StreamConfig defaults). Allocates and zeroes
  /// the staging grid.
  IncrementalEstimator(const DomainSpec& dom, const Params& params);

  /// Streaming engine with explicit sharding/threading configuration.
  IncrementalEstimator(const DomainSpec& dom, const Params& params,
                       const StreamConfig& cfg);

  ~IncrementalEstimator();
  IncrementalEstimator(const IncrementalEstimator&) = delete;
  IncrementalEstimator& operator=(const IncrementalEstimator&) = delete;

  /// Scatter new events into the raw sum and track them in the time index.
  /// O(|batch| Hs^2 Ht) work, sharded across the pool when configured.
  void add(const PointSet& batch);

  /// Remove previously-added events: each requested point cancels one
  /// tracked instance with the same coordinates (duplicates are removed
  /// once per request). Events that were never added are ignored (counted
  /// in stats().remove_misses) — they no longer bias the density. Returns
  /// the number of events actually removed.
  std::size_t remove(const PointSet& batch);

  /// Slide a time window: add \p incoming, then retire every tracked event
  /// older than \p cutoff (t < cutoff) — *regardless of arrival order*.
  /// Incoming events already past the cutoff are never scattered (they
  /// count as retired). Returns the number retired.
  std::size_t advance_window(const PointSet& incoming, double cutoff);

  /// Force a drift-control rebuild of the staging grid from the live set.
  void checkpoint();

  // Durability / fault tolerance (docs/ROBUSTNESS.md). ------------------

  /// Write a durable checkpoint now and rotate the WAL. Requires
  /// StreamConfig::durability.dir; throws std::logic_error otherwise.
  void durable_checkpoint();

  /// Rebuild this (fresh, never-ingested) estimator from the durable
  /// state in StreamConfig::durability.dir: restore the last checkpoint,
  /// replay the WAL tail (truncating a torn tail first), and publish the
  /// reconstructed state. An empty directory recovers to an empty stream,
  /// so "recover-or-start" is one call. Throws std::runtime_error on a
  /// corrupt checkpoint, std::logic_error on a used estimator.
  RecoverReport recover();

  /// Same, pointing durability at \p dir (for estimators constructed
  /// without StreamConfig::durability).
  RecoverReport recover(const std::string& dir);

  /// True after a util::InjectedCrash (or any crash-class failure)
  /// poisoned this estimator: writer-side operations now throw, readers
  /// keep the last published snapshot. Recovery = a fresh estimator +
  /// recover().
  [[nodiscard]] bool poisoned() const { return poisoned_; }

  /// Monotone batch sequence number of the last committed batch; the
  /// feeder's exactly-once resume point after recover().
  [[nodiscard]] std::uint64_t batch_seq() const { return batch_seq_; }

  /// The newest advance_window cutoff (admission's staleness watermark).
  [[nodiscard]] double last_cutoff() const { return last_cutoff_; }

  /// Snapshot of the quarantine ring (newest last). Thread-safe.
  [[nodiscard]] std::vector<QuarantinedEvent> quarantine() const
      STKDE_EXCLUDES(quarantine_mu_);

  /// Reader-safe robustness counters (serve-layer health endpoint); safe
  /// to call concurrently with the writer.
  [[nodiscard]] EngineHealth health() const;

  /// Number of live events in the last published state (readable
  /// concurrently with the writer).
  [[nodiscard]] std::size_t live_count() const {
    return live_published_.load(std::memory_order_acquire);
  }

  /// Normalized density snapshot of the last published state: raw / n_live
  /// (empty stream: all zeros). Normalization divides in double before the
  /// float store. Safe to call from reader threads.
  [[nodiscard]] DensityGrid snapshot() const;

  /// Normalized density at one voxel of the last published state (cheap
  /// probe for dashboards). Safe to call from reader threads. Each call
  /// re-reads the freshest publish; reads that must agree on a version
  /// (several probes in one request) go through one pin() instead.
  [[nodiscard]] float density_at(const Voxel& v) const;

  /// Pin the last published state: all reads through the returned handle
  /// see one consistent version. Safe to call from reader threads; invalid
  /// (density 0 everywhere) until the first publish.
  [[nodiscard]] ReaderPin pin() const;

  /// Writer-side publish/subscribe hook: called on the ingest thread after
  /// every publish with a pin of the fresh state (the serve layer's
  /// SnapshotRegistry subscribes here). Pass nullptr to detach. Must not be
  /// changed while another thread is ingesting.
  using PublishHook = std::function<void(const ReaderPin&)>;
  void set_publish_hook(PublishHook hook) { publish_hook_ = std::move(hook); }

  /// Raw (unnormalized) staging grid, 1/(hs^2 ht)-scaled kernel sums.
  /// Writer-side view: not synchronized with concurrent ingestion.
  [[nodiscard]] const DensityGrid& raw() const { return raw_; }

  [[nodiscard]] const DomainSpec& domain() const { return dom_; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const StreamConfig& config() const { return cfg_; }
  [[nodiscard]] const StreamStats& stats() const { return stats_; }

 private:
  /// An immutable published state; readers hold it via shared_ptr.
  struct Published {
    DensityGrid raw;
    std::size_t n = 0;
    std::uint64_t seq = 0;  ///< publish sequence this buffer holds
  };

  /// Retired publish buffers come back here through the shared_ptr deleter:
  /// the final refcount decrement (acq_rel) plus this mutex is the
  /// happens-before chain that makes writer reuse race-free. Shared so
  /// snapshots handed to readers may outlive the estimator.
  struct BufferPool {
    util::Mutex mu;
    std::vector<std::unique_ptr<Published>> free STKDE_GUARDED_BY(mu);

    void put(std::unique_ptr<Published> b) STKDE_EXCLUDES(mu);
    [[nodiscard]] std::unique_ptr<Published> take() STKDE_EXCLUDES(mu);
  };

  /// 1/(hs^2 ht) — the raw-grid scale shared by every scatter path.
  [[nodiscard]] double base_scale() const {
    return 1.0 / (params_.hs * params_.hs * params_.ht);
  }
  /// Scatter \p batch with sign \p sign through the tile engine and grow
  /// the pending dirty box.
  void apply(const PointSet& batch, double sign);

  /// Grow the pending dirty box by the batch's scatter footprint.
  void mark_dirty(const PointSet& batch);

  [[nodiscard]] std::int64_t bucket_key(double t) const;
  void index_add(const Point& p);
  [[nodiscard]] bool index_remove(const Point& p);
  /// Move every tracked event with t < cutoff into \p out.
  void collect_expired(double cutoff, PointSet& out);

  /// Scatter a retired/removed set negatively — unless the drift counter
  /// says a checkpoint is due, in which case the rebuild subsumes it.
  void retire_scatter(const PointSet& gone);

  /// Throws std::logic_error when poisoned (the crash contract).
  void ensure_writable() const;
  /// Run \p op under the poison guard: an InjectedCrash poisons the
  /// estimator (no rollback — a dead process would not roll back either)
  /// and rethrows; every other exception follows the failure contract the
  /// op itself implements.
  template <typename F>
  void guarded(F&& op);
  /// Admission filter: returns the admitted subset of \p batch and routes
  /// rejects to the quarantine ring (stale ones also count as
  /// dead_on_arrival).
  [[nodiscard]] PointSet admit(const PointSet& batch);
  void quarantine_event(const Point& p, QuarantineReason reason)
      STKDE_EXCLUDES(quarantine_mu_);
  /// Append one batch record to the WAL (no-op without durability) and
  /// maybe trigger a durable checkpoint.
  void log_batch(io::WalRecordType type, std::uint64_t seq, double cutoff,
                 const PointSet& points);
  void maybe_durable_checkpoint(std::size_t logged_events);
  void write_durable_checkpoint();
  /// Apply one WAL record during recover() (no publish, no re-logging).
  void replay_record(const io::WalRecord& rec);
  [[nodiscard]] PointSet collect_live() const;
  void refresh_wal_health();
  /// Zero the staging grid and rescatter the live index (serial_only: a
  /// plain per-point loop with no bins, caches or pool — the
  /// exception-recovery path).
  void rebuild(bool serial_only);
  void rebuild_from_index();
  void recover_staging();
  void publish() STKDE_EXCLUDES(pub_mu_);
  [[nodiscard]] std::shared_ptr<const Published> front() const
      STKDE_EXCLUDES(pub_mu_);
  [[nodiscard]] static ReaderPin make_pin(std::shared_ptr<const Published> pub);

  DomainSpec dom_;
  Params params_;
  StreamConfig cfg_;
  VoxelMapper map_;
  std::int32_t Hs_;
  std::int32_t Ht_;
  /// The tile engine's per-worker stamp scratch (one slot per ingest
  /// worker). Its caches persist across batches, so recorded-resolution
  /// feeds stay warm (fresh caches per batch would refill, and reallocate,
  /// every table), and its counts are stats().table_lookups/table_fills.
  std::unique_ptr<detail::StampScratches> scratch_;
  std::unique_ptr<sched::ThreadPool> pool_;  ///< null when threads <= 1

  DensityGrid raw_;  ///< writer-private staging grid
  // Publish refreshes only what changed: a reused buffer tagged seq s needs
  // the hull of the dirty boxes of publishes s+1..current (kept in a short
  // history; older buffers fall back to a full copy).
  Extent3 dirty_cur_{};  ///< staging cells touched since the last publish
  std::uint64_t publish_seq_ = 0;
  std::deque<std::pair<std::uint64_t, Extent3>> dirty_history_;
  std::map<std::int64_t, PointSet> buckets_;  ///< live events by time bucket
  std::size_t live_ = 0;
  std::uint64_t retired_since_checkpoint_ = 0;
  StreamStats stats_;

  // Fault-tolerance state (docs/ROBUSTNESS.md).
  std::unique_ptr<DurableLog> dur_;  ///< null when durability is off
  std::uint64_t batch_seq_ = 0;      ///< last committed batch sequence
  double last_cutoff_;               ///< newest advance_window cutoff
                                     ///< (-inf before the first advance)
  std::uint64_t events_since_durable_ = 0;
  bool poisoned_ = false;
  bool used_ = false;  ///< any writer-side op ran (recover() gate)
  mutable util::Mutex quarantine_mu_;
  std::deque<QuarantinedEvent> quarantine_ STKDE_GUARDED_BY(quarantine_mu_);

  /// health() mirror — atomics, because serve-side reads race the writer.
  ///
  /// Ordering contract: every operation on these counters is
  /// memory_order_relaxed, and relaxed suffices. Each field is an
  /// independent monotone statistic — no reader derives an invariant from
  /// *two* of them together, and no counter's value publishes any other
  /// data (the density snapshot travels through pub_mu_ / live_published_,
  /// never through health counters). A health() read may therefore see the
  /// fields at slightly different instants, which is exactly the
  /// dashboard-counter semantics documented on EngineHealth. Anything
  /// stronger (acquire/release) would buy nothing and put a fence on the
  /// ingest hot path. Keep new fields relaxed unless a reader starts
  /// inferring cross-field invariants — then rethink the whole block.
  struct HealthAtomics {
    std::atomic<std::uint64_t> q_nonfinite{0};
    std::atomic<std::uint64_t> q_domain{0};
    std::atomic<std::uint64_t> q_stale{0};
    std::atomic<std::uint64_t> q_dropped{0};
    std::atomic<std::uint64_t> wal_records{0};
    std::atomic<std::uint64_t> wal_synced{0};
    std::atomic<std::uint64_t> durable_checkpoints{0};
    std::atomic<bool> poisoned{false};
  };
  HealthAtomics health_;

  PublishHook publish_hook_;  ///< writer-side subscriber (serve registry)

  mutable util::Mutex pub_mu_;  ///< guards the front_ pointer swap
  /// Last published state (readers copy the shared_ptr under pub_mu_).
  std::shared_ptr<const Published> front_ STKDE_GUARDED_BY(pub_mu_);
  std::shared_ptr<BufferPool> snap_pool_ = std::make_shared<BufferPool>();
  /// Ordering contract: store(release) in publish() pairs with
  /// load(acquire) in live_count() — unlike the relaxed HealthAtomics,
  /// this value *is* read together with the published grid (readers
  /// normalize raw densities by it), so the pair must order the count
  /// after the front_ installation it describes.
  std::atomic<std::size_t> live_published_{0};
};

}  // namespace stkde::core
