#pragma once
/// \file session.hpp
/// Density-as-a-service, query side: a reader session answering point,
/// region, slice, and hotspot queries against one *pinned* snapshot
/// version.
///
/// Consistency model: a session pins a registry version and serves every
/// query from that pin until the next begin_request() — several queries in
/// one request always see one version, never a half-advanced stream (the
/// straddle IncrementalEstimator::density_at() exhibits when called twice
/// around a publish). begin_request() re-pins only when the pinned version
/// has fallen more than SessionConfig::max_staleness versions behind the
/// registry head, so a session trades freshness for pin stability
/// explicitly.
///
/// All returned values are *normalized* densities (raw / n_live), matching
/// IncrementalEstimator::snapshot(). A session is single-threaded — one
/// per reader thread; the registry behind it is the shared, thread-safe
/// object.

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "geom/voxel_mapper.hpp"
#include "grid/extent.hpp"
#include "io/slice.hpp"
#include "serve/snapshot_registry.hpp"

namespace stkde::serve {

/// Session policy knobs.
struct SessionConfig {
  /// begin_request() keeps the current pin while it is at most this many
  /// versions behind the registry head; 0 always re-pins to head.
  std::uint64_t max_staleness = 0;

  /// Budget for await_version(): how long a request may block waiting for a
  /// version the writer has not published yet. 0 (default) never blocks —
  /// await_version degrades to a head check.
  std::chrono::milliseconds request_deadline{0};

  /// Writer-stall detector: when the registry's last publish is older than
  /// this, begin_request() tags the request kDegraded — the session still
  /// answers, from its last-good pin, but callers can see the data has
  /// stopped advancing. RequestExecutor's breaker sheds expensive queries
  /// on the same threshold. 0 (default) disables both.
  std::chrono::milliseconds stall_after{0};

  /// Seed for await_version()'s decorrelated-jitter backoff. Give each
  /// session a distinct seed (e.g. its reader index) so stalled readers
  /// re-check the registry on decorrelated schedules instead of waking in
  /// lockstep on the next publish.
  std::uint64_t backoff_seed = SnapshotRegistry::kDefaultJitterSeed;
};

/// How a request's pinned version relates to the live stream.
enum class SessionState : std::uint8_t {
  kFresh = 0,     ///< pin satisfies the staleness policy; writer is live
  kDegraded = 1,  ///< serving last-good data: writer stalled or wait timed out
  kNoData = 2,    ///< no version has ever been published
};

/// begin_request() / await_version() outcome: the version this request will
/// be served from, and how trustworthy it is.
struct BeginResult {
  SessionState state = SessionState::kNoData;
  std::uint64_t version = 0;

  /// True when the session holds *some* valid snapshot (fresh or degraded);
  /// false only before the registry's first publish.
  [[nodiscard]] bool ok() const { return state != SessionState::kNoData; }
};

/// A session-eye view of service health, the payload behind the wire
/// health endpoint: serving state plus the engine's robustness counters.
struct SessionHealth {
  SessionState state = SessionState::kNoData;
  std::uint64_t served_version = 0;      ///< the session's current pin
  std::uint64_t head_version = 0;        ///< registry head
  std::uint64_t staleness_ms = 0;        ///< time since the last publish
  std::uint64_t quarantined = 0;         ///< events rejected at admission
  std::uint64_t quarantine_dropped = 0;  ///< quarantine-ring evictions
  std::uint64_t wal_lag = 0;             ///< WAL records not yet fsync'd
};

/// One ranked density hotspot (a 26-connected super-threshold component).
struct Hotspot {
  Voxel peak{};               ///< voxel of maximum density
  float peak_density = 0.0f;  ///< normalized density at the peak
  double mass = 0.0;          ///< normalized density summed over the component
  std::int64_t voxels = 0;    ///< component size
};

class Session {
 public:
  explicit Session(const SnapshotRegistry& registry, SessionConfig cfg = {});

  /// Start a request: re-pin iff the held pin is more than
  /// cfg.max_staleness versions behind the head. Returns the version the
  /// request will be served from plus its freshness state: kNoData before
  /// the first publish, kDegraded when the writer-stall detector
  /// (cfg.stall_after) says publishes have stopped, kFresh otherwise. A
  /// degraded request still serves — from the last-good pin.
  BeginResult begin_request();

  /// Read-your-writes: block (bounded exponential backoff, at most
  /// cfg.request_deadline) until the head reaches \p version, then pin it.
  /// On timeout the session keeps its last-good pin and reports kDegraded —
  /// graceful degradation rather than an error. With a zero deadline this
  /// is a non-blocking head check.
  BeginResult await_version(std::uint64_t version);

  /// Serving state + engine robustness counters (quarantine, WAL lag) for
  /// the wire health endpoint and dashboards.
  [[nodiscard]] SessionHealth health() const;

  /// State assigned by the last begin_request()/await_version().
  [[nodiscard]] SessionState state() const { return state_; }

  /// The pinned snapshot (invalid until the registry's first publish).
  [[nodiscard]] const Snapshot& pinned() const { return snap_; }
  [[nodiscard]] std::uint64_t version() const { return snap_.version; }
  [[nodiscard]] const SnapshotRegistry& registry() const { return *reg_; }

  // Query endpoints — all evaluated against the pinned version. ----------

  /// Normalized density at the voxel containing \p p; 0 outside the domain.
  [[nodiscard]] float density_at(const Point& p) const;

  /// Normalized density at voxel \p v; 0 outside the grid.
  [[nodiscard]] float density_at(const Voxel& v) const;

  /// Sum of normalized density over \p region (clipped to the grid; empty
  /// clip sums to 0).
  [[nodiscard]] double region_sum(const Extent3& region) const;

  /// Maximum normalized density over \p region (clipped; 0 on empty clip).
  [[nodiscard]] float region_max(const Extent3& region) const;

  /// Normalized T = \p t plane. Throws std::out_of_range when t is outside
  /// the grid (io::time_slice's contract).
  [[nodiscard]] io::Field2D slice(std::int32_t t) const;

  /// The \p k heaviest hotspots above the \p quantile density threshold
  /// (analysis/clusters); fewer when the grid has fewer components.
  [[nodiscard]] std::vector<Hotspot> top_hotspots(
      std::size_t k, double quantile = 0.99) const;

  /// Normalized density sub-grid over \p region (clipped to the grid).
  /// Throws std::invalid_argument when the clip is empty. The extraction
  /// proceeds in slabs of 8 X-rows and polls \p cancelled (when set)
  /// between slabs; a true poll abandons the scan and returns nullopt. The
  /// executor's deadline enforcement hangs off this — an expired expensive
  /// query stops touching memory within one slab, not one full volume.
  [[nodiscard]] std::optional<DensityGrid> region_grid(
      const Extent3& region,
      const std::function<bool()>& cancelled = {}) const;

 private:
  /// \p region clipped to the served grid extent.
  [[nodiscard]] Extent3 clip(const Extent3& region) const;

  /// Classify the current pin (stall detector included) into state_.
  BeginResult classify();

  const SnapshotRegistry* reg_;
  SessionConfig cfg_;
  VoxelMapper map_;
  Extent3 whole_;
  Snapshot snap_;
  SessionState state_ = SessionState::kNoData;
};

}  // namespace stkde::serve
