#include "core/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "core/detail/tile_scatter.hpp"
#include "partition/tile_order.hpp"
#include "sched/thread_pool.hpp"
#include "util/failpoint.hpp"

namespace stkde::core {

IncrementalEstimator::IncrementalEstimator(const DomainSpec& dom,
                                           const Params& params)
    : IncrementalEstimator(dom, params, StreamConfig{}) {}

IncrementalEstimator::IncrementalEstimator(const DomainSpec& dom,
                                           const Params& params,
                                           const StreamConfig& cfg)
    : dom_(dom),
      params_(params),
      cfg_(cfg),
      map_(dom),
      Hs_(dom.spatial_bandwidth_voxels(params.hs)),
      Ht_(dom.temporal_bandwidth_voxels(params.ht)),
      scratch_(std::make_unique<detail::StampScratches>(Hs_, cfg.threads)),
      last_cutoff_(-std::numeric_limits<double>::infinity()) {
  params_.validate();
  raw_.allocate(map_.dims());
  raw_.fill(0.0f);
  if (!cfg_.durability.dir.empty())
    dur_ = std::make_unique<DurableLog>(cfg_.durability.dir,
                                        cfg_.durability.sync);
  if (cfg_.threads > 1)
    pool_ = std::make_unique<sched::ThreadPool>(cfg_.threads);
}

IncrementalEstimator::~IncrementalEstimator() = default;

// ---------------------------------------------------------------------------
// Scatter engine

void IncrementalEstimator::apply(const PointSet& batch, double sign) {
  if (batch.empty()) return;
  STKDE_FAILPOINT("stream.ingest");
  mark_dirty(batch);
  // Every batch at every thread count is one pass of the PB-TILE engine,
  // planned on this grid: the serial tile walk at one thread, parity waves
  // (with the hotspot pre-wave) beyond. The cache keys on exact offsets, so
  // the density is a pure reordering of the per-point scatter.
  const detail::TilePlan plan = detail::plan_tile_schedule(
      map_.dims(), raw_.row_stride(), sizeof(float), params_.tile,
      cfg_.threads, Hs_, Ht_);
  const PointBins bins =
      tile_major_bins(batch, map_, plan.tiles, Hs_, Ht_, plan.bin_rule());
  // Raw scale: 1/(hs^2 ht); the 1/n factor is applied on read.
  const detail::RunSetup s(dom_, params_, sign * base_scale());
  detail::with_kernel(params_.kernel, [&](const auto& k) {
    const detail::TileScatterStats st = detail::scatter_tile_major(
        raw_, Extent3::whole(map_.dims()), s, k, batch, plan, bins, *scratch_,
        pool_.get());
    stats_.replica_tasks += static_cast<std::uint64_t>(st.replica_tasks);
  });
  const detail::LaneStats lanes = scratch_->lanes();
  stats_.table_lookups = static_cast<std::uint64_t>(lanes.lookups);
  stats_.table_fills = static_cast<std::uint64_t>(lanes.fills);
  stats_.table_slots = static_cast<std::uint64_t>(scratch_->table_slots());
}

void IncrementalEstimator::mark_dirty(const PointSet& batch) {
  Extent3 box{};  // empty; hull() treats it as identity
  for (const Point& p : batch)
    box = box.hull(Extent3::cylinder(map_.voxel_of(p), Hs_, Ht_));
  dirty_cur_ = dirty_cur_.hull(box.intersect(Extent3::whole(map_.dims())));
}

// ---------------------------------------------------------------------------
// Time-bucketed retirement index

std::int64_t IncrementalEstimator::bucket_key(double t) const {
  return static_cast<std::int64_t>(std::floor(t / params_.ht));
}

void IncrementalEstimator::index_add(const Point& p) {
  buckets_[bucket_key(p.t)].push_back(p);
  ++live_;
}

bool IncrementalEstimator::index_remove(const Point& p) {
  const auto it = buckets_.find(bucket_key(p.t));
  if (it == buckets_.end()) return false;
  PointSet& vec = it->second;
  const auto pos = std::find(vec.begin(), vec.end(), p);
  if (pos == vec.end()) return false;
  *pos = vec.back();  // order within a bucket is irrelevant
  vec.pop_back();
  if (vec.empty()) buckets_.erase(it);
  --live_;
  return true;
}

void IncrementalEstimator::collect_expired(double cutoff, PointSet& out) {
  // Only buckets up to the cutoff's own bucket can hold expired events; the
  // map is key-ordered, so the scan touches Theta(expired) entries plus the
  // boundary bucket — independent of arrival order and window size.
  const std::int64_t cut_key = bucket_key(cutoff);
  auto it = buckets_.begin();
  while (it != buckets_.end() && it->first <= cut_key) {
    PointSet& vec = it->second;
    auto keep = vec.begin();
    for (const Point& p : vec) {
      if (p.t < cutoff)
        out.push_back(p);
      else
        *keep++ = p;
    }
    live_ -= static_cast<std::size_t>(vec.end() - keep);
    vec.erase(keep, vec.end());
    if (vec.empty())
      it = buckets_.erase(it);
    else
      ++it;
  }
}

// ---------------------------------------------------------------------------
// Admission + quarantine

void IncrementalEstimator::quarantine_event(const Point& p,
                                            QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kNonFinite:
      ++stats_.quarantined_nonfinite;
      health_.q_nonfinite.fetch_add(1, std::memory_order_relaxed);
      break;
    case QuarantineReason::kOutOfDomain:
      ++stats_.quarantined_domain;
      health_.q_domain.fetch_add(1, std::memory_order_relaxed);
      break;
    case QuarantineReason::kStale:
      ++stats_.quarantined_stale;
      health_.q_stale.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  util::LockGuard lk(quarantine_mu_);
  if (quarantine_.size() >= cfg_.quarantine_capacity) {
    if (!quarantine_.empty()) quarantine_.pop_front();
    ++stats_.quarantine_dropped;
    health_.q_dropped.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.quarantine_capacity == 0) return;
  }
  quarantine_.push_back(QuarantinedEvent{p, reason});
}

PointSet IncrementalEstimator::admit(const PointSet& batch,
                                     double watermark) {
  PointSet ok;
  ok.reserve(batch.size());
  // One bandwidth: events farther off the box cannot touch any voxel.
  const double ms = params_.hs;
  const double mt = params_.ht;
  const double xlo = dom_.x0 - ms, xhi = dom_.x0 + dom_.gx + ms;
  const double ylo = dom_.y0 - ms, yhi = dom_.y0 + dom_.gy + ms;
  const double tlo = dom_.t0 - mt, thi = dom_.t0 + dom_.gt + mt;
  for (const Point& p : batch) {
    if (!(std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.t))) {
      quarantine_event(p, QuarantineReason::kNonFinite);
    } else if (p.x < xlo || p.x > xhi || p.y < ylo || p.y > yhi ||
               p.t < tlo || p.t > thi) {
      quarantine_event(p, QuarantineReason::kOutOfDomain);
    } else if (p.t < watermark) {
      // Dead on arrival: counted, and tracked in the quarantine ring.
      ++stats_.dead_on_arrival;
      quarantine_event(p, QuarantineReason::kStale);
    } else {
      ok.push_back(p);
    }
  }
  return ok;
}

std::vector<QuarantinedEvent> IncrementalEstimator::quarantine() const {
  util::LockGuard lk(quarantine_mu_);
  return {quarantine_.begin(), quarantine_.end()};
}

EngineHealth IncrementalEstimator::health() const {
  EngineHealth h;
  h.quarantined_nonfinite =
      health_.q_nonfinite.load(std::memory_order_relaxed);
  h.quarantined_domain = health_.q_domain.load(std::memory_order_relaxed);
  h.quarantined_stale = health_.q_stale.load(std::memory_order_relaxed);
  h.quarantine_dropped = health_.q_dropped.load(std::memory_order_relaxed);
  h.wal_records = health_.wal_records.load(std::memory_order_relaxed);
  h.wal_synced = health_.wal_synced.load(std::memory_order_relaxed);
  h.durable_checkpoints =
      health_.durable_checkpoints.load(std::memory_order_relaxed);
  h.poisoned = health_.poisoned.load(std::memory_order_relaxed);
  return h;
}

// ---------------------------------------------------------------------------
// Streaming operations

void IncrementalEstimator::ensure_writable() const {
  if (poisoned_)
    throw std::logic_error(
        "IncrementalEstimator: poisoned by a simulated crash; build a fresh "
        "estimator and recover() from the durable state");
}

template <typename F>
void IncrementalEstimator::guarded(F&& op) {
  ensure_writable();
  used_ = true;
  try {
    op();
  } catch (const util::InjectedCrash&) {
    // Simulated process death: no rollback (a dead process performs none),
    // refuse all further writes. Readers keep the last published snapshot.
    poisoned_ = true;
    health_.poisoned.store(true, std::memory_order_relaxed);
    throw;
  }
}

void IncrementalEstimator::log_batch(io::WalRecordType type,
                                     std::uint64_t seq, double cutoff,
                                     const PointSet& points) {
  if (!dur_) return;
  try {
    dur_->append(io::WalRecord{type, seq, cutoff, points});
  } catch (...) {
    // The batch is already committed in memory; a log that lost it cannot
    // be trusted for recovery. Fail stop rather than serve state the WAL
    // will silently forget.
    poisoned_ = true;
    health_.poisoned.store(true, std::memory_order_relaxed);
    throw;
  }
  ++stats_.wal_records;
  refresh_wal_health();
}

void IncrementalEstimator::refresh_wal_health() {
  health_.wal_records.store(stats_.wal_records, std::memory_order_relaxed);
  // Records still exposed to replay: the current generation's unsynced
  // appends. A durable checkpoint rotates the log, dropping lag to zero.
  const std::uint64_t pending =
      dur_ ? dur_->wal_records() - dur_->wal_synced() : 0;
  health_.wal_synced.store(stats_.wal_records - pending,
                           std::memory_order_relaxed);
}

void IncrementalEstimator::add(const PointSet& batch) {
  guarded([&] {
    STKDE_FAILPOINT("stream.add");
    const PointSet admitted = admit(batch, last_cutoff_);
    try {
      apply(admitted, +1.0);
    } catch (const util::InjectedCrash&) {
      throw;  // crash-class: the guard poisons, no rollback
    } catch (...) {
      recover_staging();  // batch not yet indexed: discarded
      throw;
    }
    for (const Point& p : admitted) index_add(p);
    stats_.added += admitted.size();
    ++stats_.batches;
    // Log *after* the in-memory commit point: an error-return rollback
    // above leaves no record, a crash below replays exactly this state.
    log_batch(io::WalRecordType::kAdd, ++batch_seq_, 0.0, admitted);
    publish();
    maybe_durable_checkpoint(admitted.size());
  });
}

std::size_t IncrementalEstimator::remove(const PointSet& batch) {
  std::size_t n = 0;
  guarded([&] {
    PointSet found;
    found.reserve(batch.size());
    for (const Point& p : batch) {
      if (index_remove(p))
        found.push_back(p);
      else
        ++stats_.remove_misses;
    }
    // The removals are committed in the index at this point; on a scatter
    // failure the recovery rebuild keeps the grid consistent with them.
    stats_.removed += found.size();
    ++stats_.batches;
    // Log the instances actually found: replay removes exactly them, and
    // misses never re-enter the history.
    log_batch(io::WalRecordType::kRemove, ++batch_seq_, 0.0, found);
    try {
      retire_scatter(found);
    } catch (const util::InjectedCrash&) {
      throw;
    } catch (...) {
      recover_staging();
      throw;
    }
    publish();
    maybe_durable_checkpoint(found.size());
    n = found.size();
  });
  return n;
}

std::size_t IncrementalEstimator::advance_window(const PointSet& incoming,
                                                 double cutoff) {
  std::size_t out = 0;
  guarded([&] {
    STKDE_FAILPOINT("stream.advance");
    // Events already past the cutoff must never enter the grid: under the
    // old arrival-order deque they were added and could never be popped,
    // biasing the density permanently.
    const double watermark = std::max(last_cutoff_, cutoff);
    const std::uint64_t dead_before = stats_.dead_on_arrival;
    const PointSet fresh = admit(incoming, watermark);
    const auto dead =
        static_cast<std::size_t>(stats_.dead_on_arrival - dead_before);
    try {
      apply(fresh, +1.0);
    } catch (const util::InjectedCrash&) {
      throw;
    } catch (...) {
      recover_staging();  // fresh not yet indexed: discarded, watermark kept
      throw;
    }
    last_cutoff_ = watermark;  // commits with the batch
    for (const Point& p : fresh) index_add(p);
    stats_.added += fresh.size();

    PointSet expired;
    collect_expired(cutoff, expired);
    stats_.retired += expired.size();
    ++stats_.batches;
    // One record carries the whole slide: the admitted fresh set plus the
    // cutoff; replay re-derives the expired set from the rebuilt index.
    log_batch(io::WalRecordType::kAdvance, ++batch_seq_, cutoff, fresh);
    try {
      retire_scatter(expired);
    } catch (const util::InjectedCrash&) {
      throw;
    } catch (...) {
      recover_staging();
      throw;
    }
    publish();
    maybe_durable_checkpoint(fresh.size() + expired.size());
    out = expired.size() + dead;
  });
  return out;
}

void IncrementalEstimator::checkpoint() {
  guarded([&] {
    try {
      rebuild_from_index();
    } catch (const util::InjectedCrash&) {
      throw;
    } catch (...) {
      recover_staging();
      throw;
    }
    publish();
  });
}

// ---------------------------------------------------------------------------
// Durability: WAL cadence, durable checkpoints, recovery

PointSet IncrementalEstimator::collect_live() const {
  PointSet live;
  live.reserve(live_);
  for (const auto& [key, vec] : buckets_)
    live.insert(live.end(), vec.begin(), vec.end());
  return live;
}

void IncrementalEstimator::maybe_durable_checkpoint(
    std::size_t logged_events) {
  if (!dur_ || cfg_.durability.checkpoint_events == 0) return;
  events_since_durable_ += logged_events;
  if (events_since_durable_ < cfg_.durability.checkpoint_events) return;
  write_durable_checkpoint();
}

void IncrementalEstimator::write_durable_checkpoint() {
  // A failure *before* the commit rename is recoverable (generation g and
  // its WAL are untouched); a crash at/after the commit is the guard's
  // poison case, and recovery reads generation g+1.
  dur_->checkpoint(batch_seq_, last_cutoff_, collect_live(), raw_);
  events_since_durable_ = 0;
  ++stats_.durable_checkpoints;
  health_.durable_checkpoints.fetch_add(1, std::memory_order_relaxed);
  refresh_wal_health();
}

void IncrementalEstimator::durable_checkpoint() {
  if (!dur_)
    throw std::logic_error(
        "IncrementalEstimator::durable_checkpoint: durability not "
        "configured (StreamConfig::durability.dir)");
  guarded([&] { write_durable_checkpoint(); });
}

void IncrementalEstimator::replay_record(const io::WalRecord& rec) {
  switch (rec.type) {
    case io::WalRecordType::kAdd: {
      apply(rec.points, +1.0);
      for (const Point& p : rec.points) index_add(p);
      stats_.added += rec.points.size();
      ++stats_.batches;
      return;
    }
    case io::WalRecordType::kAdvance: {
      last_cutoff_ = std::max(last_cutoff_, rec.cutoff);
      apply(rec.points, +1.0);
      for (const Point& p : rec.points) index_add(p);
      stats_.added += rec.points.size();
      PointSet expired;
      collect_expired(rec.cutoff, expired);
      stats_.retired += expired.size();
      ++stats_.batches;
      retire_scatter(expired);
      return;
    }
    case io::WalRecordType::kRemove: {
      PointSet found;
      found.reserve(rec.points.size());
      for (const Point& p : rec.points)
        if (index_remove(p)) found.push_back(p);
      stats_.removed += found.size();
      ++stats_.batches;
      retire_scatter(found);
      return;
    }
  }
}

RecoverReport IncrementalEstimator::recover() {
  if (!dur_)
    throw std::logic_error(
        "IncrementalEstimator::recover: durability not configured "
        "(StreamConfig::durability.dir)");
  if (used_)
    throw std::logic_error(
        "IncrementalEstimator::recover: requires a fresh (never-ingested) "
        "estimator");
  used_ = true;
  RecoverReport rep;
  DurableLog::Recovered rec = dur_->recover();
  rep.wal_torn = rec.torn;
  rep.truncated_bytes = rec.truncated_bytes;
  if (rec.have_checkpoint) {
    const Extent3 want = raw_.extent();
    const Extent3 got = rec.grid.extent();
    if (got.xlo != want.xlo || got.xhi != want.xhi || got.ylo != want.ylo ||
        got.yhi != want.yhi || got.tlo != want.tlo || got.thi != want.thi)
      throw std::runtime_error(
          "IncrementalEstimator::recover: checkpoint grid shape does not "
          "match this domain");
    raw_.copy_from(rec.grid);
    for (const Point& p : rec.live) index_add(p);
    batch_seq_ = rec.last_seq;
    last_cutoff_ = std::max(last_cutoff_, rec.last_cutoff);
    rep.checkpoint_loaded = true;
  }
  for (const io::WalRecord& r : rec.tail) {
    if (r.seq <= batch_seq_) {
      // Pre-checkpoint leftovers (a crash landed between WAL rotation
      // steps); the checkpoint already contains their effect.
      ++rep.skipped_records;
      continue;
    }
    // Chaos site: a crash *during* recovery replay. Recovery mutates only
    // in-memory state (the durable files were already tail-truncated by
    // DurableLog::recover), so a re-run on a fresh estimator must land on
    // the identical grid — recovery_test.cpp's idempotence matrix.
    STKDE_FAILPOINT("stream.recover.replay");
    replay_record(r);
    batch_seq_ = r.seq;
    ++rep.batches_replayed;
    rep.events_replayed += r.points.size();
    ++stats_.replayed_batches;
  }
  rep.last_batch_seq = batch_seq_;
  dirty_cur_ = Extent3::whole(map_.dims());
  publish();
  refresh_wal_health();
  return rep;
}

RecoverReport IncrementalEstimator::recover(const std::string& dir) {
  if (dur_) {
    if (dur_->dir() != dir)
      throw std::logic_error(
          "IncrementalEstimator::recover: durability already configured "
          "for a different directory");
  } else {
    cfg_.durability.dir = dir;
    dur_ = std::make_unique<DurableLog>(dir, cfg_.durability.sync);
  }
  return recover();
}

void IncrementalEstimator::retire_scatter(const PointSet& gone) {
  retired_since_checkpoint_ += gone.size();
  if (cfg_.checkpoint_retires > 0 &&
      retired_since_checkpoint_ >= cfg_.checkpoint_retires) {
    // A checkpoint is due anyway: the rebuild starts from a zeroed grid, so
    // scattering `gone` negatively first would be pure wasted work.
    rebuild_from_index();
    return;
  }
  apply(gone, -1.0);
}

void IncrementalEstimator::rebuild(bool serial_only) {
  raw_.fill(0.0f);
  const PointSet live = collect_live();
  if (serial_only) {
    // The exception-recovery path: a plain per-point loop that takes no
    // bins, caches or pool tasks, so it cannot fail the way the batch it
    // recovers from did.
    const Extent3 whole = Extent3::whole(map_.dims());
    detail::with_kernel(params_.kernel, [&](const auto& k) {
      kernels::SpatialInvariant ks;
      kernels::TemporalInvariant kt;
      for (const Point& p : live)
        detail::scatter_sym(raw_, whole, map_, k, p, params_.hs, params_.ht,
                            Hs_, Ht_, base_scale(), ks, kt);
    });
  } else {
    apply(live, +1.0);
  }
  dirty_cur_ = Extent3::whole(map_.dims());  // fill(0) touched everything
  retired_since_checkpoint_ = 0;
}

void IncrementalEstimator::rebuild_from_index() {
  STKDE_FAILPOINT("stream.rebuild");
  rebuild(/*serial_only=*/false);
  ++stats_.checkpoints;
}

void IncrementalEstimator::recover_staging() {
  rebuild(/*serial_only=*/true);
  ++stats_.recoveries;
}

// ---------------------------------------------------------------------------
// Publication (double-buffered reader snapshots)

void IncrementalEstimator::BufferPool::put(std::unique_ptr<Published> b) {
  util::LockGuard lk(mu);
  // A small cap: steady state alternates two buffers; slow readers may
  // briefly push a third.
  if (free.size() < 4) free.push_back(std::move(b));
}

std::unique_ptr<IncrementalEstimator::Published>
IncrementalEstimator::BufferPool::take() {
  util::LockGuard lk(mu);
  if (free.empty()) return nullptr;
  auto b = std::move(free.back());
  free.pop_back();
  return b;
}

void IncrementalEstimator::publish() {
  STKDE_FAILPOINT("stream.publish");
  ++publish_seq_;
  dirty_history_.emplace_back(publish_seq_, dirty_cur_);
  constexpr std::size_t kDirtyHistory = 16;
  if (dirty_history_.size() > kDirtyHistory) dirty_history_.pop_front();

  std::unique_ptr<Published> next = snap_pool_->take();
  if (next) {
    // The history covers the buffer's gap iff it reaches back to the first
    // publish after the buffer's own; refresh the hull of those boxes.
    if (!dirty_history_.empty() && dirty_history_.front().first <= next->seq + 1) {
      Extent3 refresh{};
      for (const auto& [seq, box] : dirty_history_)
        if (seq > next->seq) refresh = refresh.hull(box);
      next->raw.copy_region(raw_, refresh);
    } else {
      next->raw.copy_from(raw_);
    }
  } else {
    next = std::make_unique<Published>();
    next->raw.copy_from(raw_);
  }
  next->n = live_;
  next->seq = publish_seq_;
  dirty_cur_ = Extent3{};

  // Hand the buffer to readers through a deleter that returns it to the
  // (shared, mutex-guarded) pool when the last reference drops — the only
  // reuse protocol whose happens-before the writer can rely on.
  std::shared_ptr<const Published> sp(
      next.release(), [pool = snap_pool_](const Published* p) {
        pool->put(std::unique_ptr<Published>(const_cast<Published*>(p)));
      });
  std::shared_ptr<const Published> old;
  {
    util::LockGuard lk(pub_mu_);
    old = front_;
    front_ = sp;
  }
  // `old` drops here, outside pub_mu_ (its deleter takes the pool mutex).
  old.reset();
  live_published_.store(live_, std::memory_order_release);
  ++stats_.publishes;
  if (publish_hook_) publish_hook_(make_pin(sp));
}

ReaderPin IncrementalEstimator::make_pin(
    std::shared_ptr<const Published> pub) {
  ReaderPin pin;
  if (pub) {
    pin.live_ = pub->n;
    pin.seq_ = pub->seq;
    // Aliasing pointer: the pin exposes only the grid but keeps the whole
    // published buffer (and its return-to-pool deleter) alive.
    const DensityGrid* grid = &pub->raw;
    pin.raw_ = std::shared_ptr<const DensityGrid>(std::move(pub), grid);
  }
  return pin;
}

std::shared_ptr<const IncrementalEstimator::Published>
IncrementalEstimator::front() const {
  util::LockGuard lk(pub_mu_);
  return front_;
}

ReaderPin IncrementalEstimator::pin() const { return make_pin(front()); }

DensityGrid IncrementalEstimator::snapshot() const {
  DensityGrid out(raw_.extent());
  const ReaderPin p = pin();
  if (!p.valid() || p.live() == 0) {
    out.fill(0.0f);
    return out;
  }
  out.assign_scaled(p.raw(), p.norm());
  return out;
}

float IncrementalEstimator::density_at(const Voxel& v) const {
  return pin().density_at(v);
}

}  // namespace stkde::core
