#include "serve/session.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "analysis/clusters.hpp"

namespace stkde::serve {

Session::Session(const SnapshotRegistry& registry, SessionConfig cfg)
    : reg_(&registry),
      cfg_(cfg),
      map_(registry.domain()),
      whole_(Extent3::whole(map_.dims())) {
  snap_ = reg_->pin();
  classify();
}

BeginResult Session::classify() {
  if (!snap_.valid()) {
    state_ = SessionState::kNoData;
    return {state_, 0};
  }
  state_ = SessionState::kFresh;
  if (cfg_.stall_after.count() > 0 &&
      reg_->publish_age() > cfg_.stall_after)
    state_ = SessionState::kDegraded;
  return {state_, snap_.version};
}

BeginResult Session::begin_request() {
  // One head_version() read, one comparison: the cheap path for a fresh
  // pin. A publish racing past between the check and a re-pin only makes
  // the new pin *fresher* than required.
  if (!snap_.valid() ||
      reg_->head_version() > snap_.version + cfg_.max_staleness)
    snap_ = reg_->pin();
  return classify();
}

BeginResult Session::await_version(std::uint64_t version) {
  const bool reached =
      cfg_.request_deadline.count() > 0
          ? reg_->wait_for_version_backoff(version, cfg_.request_deadline,
                                           cfg_.backoff_seed)
          : reg_->head_version() >= version;
  if (reached) {
    snap_ = reg_->pin();
    return classify();
  }
  // Deadline expired: degrade rather than fail. The last-good pin keeps
  // serving; the state tells the caller their version never arrived.
  classify();
  if (state_ == SessionState::kFresh) state_ = SessionState::kDegraded;
  return {state_, snap_.valid() ? snap_.version : 0};
}

SessionHealth Session::health() const {
  SessionHealth h;
  h.state = state_;
  h.served_version = snap_.version;
  h.head_version = reg_->head_version();
  const auto age = reg_->publish_age();
  h.staleness_ms =
      age == std::chrono::milliseconds::max()
          ? std::numeric_limits<std::uint64_t>::max()
          : static_cast<std::uint64_t>(age.count());
  const core::EngineHealth eh = reg_->engine_health();
  h.quarantined = eh.quarantined_total();
  h.quarantine_dropped = eh.quarantine_dropped;
  h.wal_lag = eh.wal_lag();
  return h;
}

Extent3 Session::clip(const Extent3& region) const {
  return region.intersect(snap_.valid() ? snap_.raw->extent() : whole_);
}

float Session::density_at(const Point& p) const {
  if (!map_.in_domain(p)) return 0.0f;
  return density_at(map_.voxel_of(p));
}

float Session::density_at(const Voxel& v) const {
  if (!snap_.valid() || snap_.n == 0 ||
      !snap_.raw->extent().contains(v.x, v.y, v.t))
    return 0.0f;
  return static_cast<float>(
      static_cast<double>(snap_.raw->at(v.x, v.y, v.t)) * snap_.norm());
}

double Session::region_sum(const Extent3& region) const {
  const Extent3 r = clip(region);
  if (r.empty() || !snap_.valid() || snap_.n == 0) return 0.0;
  double sum = 0.0;
  for (std::int32_t X = r.xlo; X < r.xhi; ++X)
    for (std::int32_t Y = r.ylo; Y < r.yhi; ++Y) {
      const float* row = snap_.raw->row(X, Y);
      const std::int32_t lo = r.tlo - snap_.raw->extent().tlo;
      for (std::int32_t i = 0; i < r.nt(); ++i)
        sum += static_cast<double>(row[lo + i]);
    }
  return sum * snap_.norm();
}

float Session::region_max(const Extent3& region) const {
  const Extent3 r = clip(region);
  if (r.empty() || !snap_.valid() || snap_.n == 0) return 0.0f;
  float m = 0.0f;
  for (std::int32_t X = r.xlo; X < r.xhi; ++X)
    for (std::int32_t Y = r.ylo; Y < r.yhi; ++Y) {
      const float* row = snap_.raw->row(X, Y);
      const std::int32_t lo = r.tlo - snap_.raw->extent().tlo;
      for (std::int32_t i = 0; i < r.nt(); ++i) m = std::max(m, row[lo + i]);
    }
  return static_cast<float>(static_cast<double>(m) * snap_.norm());
}

io::Field2D Session::slice(std::int32_t t) const {
  if (!snap_.valid()) {
    // No published state yet: an all-zero plane with the domain's shape,
    // same bounds contract as the served grid would have.
    if (t < whole_.tlo || t >= whole_.thi)
      throw std::out_of_range("Session::slice: t outside grid");
    io::Field2D f;
    f.nx = whole_.nx();
    f.ny = whole_.ny();
    f.values.assign(static_cast<std::size_t>(f.nx) * f.ny, 0.0f);
    return f;
  }
  io::Field2D f = io::time_slice(*snap_.raw, t);
  const double norm = snap_.norm();
  for (float& v : f.values)
    v = static_cast<float>(static_cast<double>(v) * norm);
  return f;
}

std::vector<Hotspot> Session::top_hotspots(std::size_t k,
                                           double quantile) const {
  std::vector<Hotspot> out;
  if (k == 0 || !snap_.valid() || snap_.n == 0) return out;
  // Quantile and clustering run on the raw grid: the threshold scales with
  // the density, so the components are identical to the normalized grid's —
  // only the reported peak/mass need the 1/n factor.
  const float threshold = analysis::density_quantile(*snap_.raw, quantile);
  const std::vector<analysis::Cluster> clusters =
      analysis::extract_clusters(*snap_.raw, threshold);
  const double norm = snap_.norm();
  out.reserve(std::min(k, clusters.size()));
  for (const analysis::Cluster& c : clusters) {
    if (out.size() >= k) break;
    out.push_back(Hotspot{c.peak_voxel,
                          static_cast<float>(static_cast<double>(c.peak) * norm),
                          c.mass * norm, c.voxels});
  }
  return out;
}

std::optional<DensityGrid> Session::region_grid(
    const Extent3& region, const std::function<bool()>& cancelled) const {
  const Extent3 r = clip(region);
  if (r.empty())
    throw std::invalid_argument("Session::region_grid: empty region");
  DensityGrid out(r);
  if (!snap_.valid() || snap_.n == 0) {
    out.fill(0.0f);
    return out;
  }
  const double norm = snap_.norm();
  // Poll between 8-row X slabs: frequent enough that an expired deadline
  // stops an O(volume) scan promptly, rare enough to stay off the
  // per-voxel hot path.
  constexpr std::int32_t kSlabRows = 8;
  for (std::int32_t X = r.xlo; X < r.xhi; ++X) {
    if ((X - r.xlo) % kSlabRows == 0 && cancelled && cancelled())
      return std::nullopt;
    for (std::int32_t Y = r.ylo; Y < r.yhi; ++Y) {
      const float* src = snap_.raw->row(X, Y);
      const std::int32_t lo = r.tlo - snap_.raw->extent().tlo;
      float* dst = out.row(X, Y);
      for (std::int32_t i = 0; i < r.nt(); ++i)
        dst[i] = static_cast<float>(static_cast<double>(src[lo + i]) * norm);
    }
  }
  return out;
}

}  // namespace stkde::serve
