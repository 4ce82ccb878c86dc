#include "dashboard.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <type_traits>
#include <variant>

#include "analysis/clusters.hpp"
#include "geom/voxel_mapper.hpp"
#include "io/slice.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"

namespace perfbench {

namespace w = stkde::serve::wire;
using stkde::Extent3;

namespace {

template <class... Ts>
struct Overload : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overload(Ts...) -> Overload<Ts...>;

/// Version an answer was served from; nullopt for error answers.
std::optional<std::uint64_t> version_of(const w::ResponseMessage& r) {
  return std::visit(
      [](const auto& m) -> std::optional<std::uint64_t> {
        if constexpr (std::is_same_v<std::decay_t<decltype(m)>, w::ErrorResponse>)
          return std::nullopt;
        else
          return m.version;
      },
      r);
}

bool close(double got, double want) {
  return std::abs(got - want) <= 1e-6 * std::abs(want) + 1e-30;
}

}  // namespace

std::size_t kind_index(const w::QueryMessage& q) {
  return std::visit(
      Overload{[](const w::DensityAtQuery&) -> std::size_t { return 0; },
               [](const w::RegionQuery& r) -> std::size_t {
                 return r.op == w::RegionOp::kSum ? 1 : 2;
               },
               [](const w::SliceQuery&) -> std::size_t { return 3; },
               [](const w::HotspotsQuery&) -> std::size_t { return 4; },
               [](const w::RegionGridQuery&) -> std::size_t { return 5; },
               [](const w::HealthQuery&) -> std::size_t { return 6; }},
      q);
}

std::vector<w::QueryMessage> make_refresh(const stkde::DomainSpec& dom,
                                          std::int32_t t_focus,
                                          std::int32_t recent,
                                          std::mt19937_64& rng) {
  const stkde::GridDims d = dom.dims();
  const std::int32_t tlo = std::max(0, t_focus - recent + 1);
  const std::int32_t thi = std::min(d.gt, t_focus + 1);
  auto uni = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&rng](std::int32_t lo, std::int32_t hi) {  // [lo, hi)
    return std::uniform_int_distribution<std::int32_t>(lo, hi - 1)(rng);
  };
  std::vector<w::QueryMessage> q;
  for (int i = 0; i < 4; ++i) {
    const std::int32_t T = pick(tlo, thi);
    q.emplace_back(w::DensityAtQuery{stkde::Point{
        dom.x0 + uni(0.1, 0.9) * dom.gx, dom.y0 + uni(0.1, 0.9) * dom.gy,
        dom.t0 + (static_cast<double>(T) + 0.5) * dom.tres}});
  }
  for (int i = 0; i < 2; ++i) {
    const std::int32_t qx = pick(0, 2);
    const std::int32_t qy = pick(0, 2);
    const Extent3 quad{qx * d.gx / 2, (qx + 1) * d.gx / 2,
                       qy * d.gy / 2, (qy + 1) * d.gy / 2, tlo, thi};
    q.emplace_back(w::RegionQuery{quad, w::RegionOp::kSum});
  }
  q.emplace_back(w::RegionQuery{
      Extent3{d.gx / 4, 3 * d.gx / 4, d.gy / 4, 3 * d.gy / 4, tlo, thi},
      w::RegionOp::kMax});
  q.emplace_back(w::SliceQuery{thi - 1});
  q.emplace_back(w::SliceQuery{std::max(0, thi - 4)});
  q.emplace_back(w::HotspotsQuery{8, 0.99});
  const std::int32_t cx = pick(12, std::max(13, d.gx - 12));
  const std::int32_t cy = pick(12, std::max(13, d.gy - 12));
  q.emplace_back(w::RegionGridQuery{
      Extent3{cx - 12, cx + 12, cy - 12, cy + 12, tlo, thi}});
  return q;
}

Dashboard::Dashboard(const stkde::serve::SnapshotRegistry& reg,
                     stkde::serve::RequestExecutor& exec, Tracer& tracer)
    : reg_(reg), exec_(exec), tracer_(tracer) {}

std::vector<std::string> Dashboard::describe_kinds() const {
  std::vector<std::string> out;
  for (std::size_t k = 0; k < kQueryKinds.size(); ++k)
    out.push_back(describe(std::string("answer_ms.") + kQueryKinds[k], latency_ms_[k], 0, "ms"));
  return out;
}

int Dashboard::kinds_checked() const {
  return static_cast<int>(std::count(checked_.begin(), checked_.end(), true));
}

double Dashboard::refresh(const std::vector<w::QueryMessage>& queries,
                          std::uint64_t request, bool traced, Outcomes& out) {
  std::vector<w::Frame> frames;
  frames.reserve(queries.size());
  for (const auto& q : queries) frames.push_back(w::encode(q));

  // The client's own pin: the version the answers are checked against.
  stkde::serve::Session mine(reg_);
  const stkde::serve::Snapshot pinned = mine.pinned();

  const int root = traced ? tracer_.open("refresh", request) : -1;
  const double t0 = now_s();
  std::vector<std::future<w::Frame>> futs;
  std::vector<double> submitted(frames.size());
  futs.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    submitted[i] = now_s();
    futs.push_back(exec_.submit(frames[i].data(), frames[i].size(), request));
  }
  std::vector<std::optional<w::ResponseMessage>> answers(frames.size());
  std::vector<double> answered(frames.size());
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const w::Frame f = futs[i].get();
    answers[i] = w::decode_response(f.data(), f.size());
    answered[i] = now_s();
  }
  const double t1 = now_s();
  tracer_.close(root);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::size_t k = kind_index(queries[i]);
    latency_ms_[k].push_back((answered[i] - submitted[i]) * 1e3);
    if (traced)
      tracer_.add(std::string("serve.answer.") + kQueryKinds[k], submitted[i],
                  answered[i], request, root);
  }

  bool same_version = pinned.valid();
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const auto v = answers[i] ? version_of(*answers[i]) : std::nullopt;
    const bool ok = v.has_value();
    out.record(ok);
    if (!ok && failures_.size() < 8)
      failures_.push_back(std::string("refresh answer not servable: ") +
                          kQueryKinds[kind_index(queries[i])]);
    if (!ok || *v != pinned.version) same_version = false;
  }
  if (same_version) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::size_t k = kind_index(queries[i]);
      if (checked_[k]) continue;
      checked_[k] = true;
      const bool ok = check(pinned, queries[i], *answers[i]);
      out.record(ok);
      if (!ok && failures_.size() < 8)
        failures_.push_back(std::string("answer differs from the pinned grid: ") +
                            kQueryKinds[k]);
    }
  }
  if (traced)
    for (std::size_t i = 0; i < queries.size(); ++i) replay(queries[i], frames[i]);
  return (t1 - t0) * 1e3;
}

bool Dashboard::check(const stkde::serve::Snapshot& snap,
                      const w::QueryMessage& q,
                      const w::ResponseMessage& r) const {
  const stkde::DensityGrid& raw = *snap.raw;
  const double norm = snap.norm();
  const Extent3 whole = raw.extent();
  auto region_fold = [&](const Extent3& reg, auto fold, double init) {
    const Extent3 c = reg.intersect(whole);
    double acc = init;
    for (std::int32_t X = c.xlo; X < c.xhi; ++X)
      for (std::int32_t Y = c.ylo; Y < c.yhi; ++Y)
        for (std::int32_t T = c.tlo; T < c.thi; ++T)
          acc = fold(acc, static_cast<double>(raw.at(X, Y, T)));
    return acc;
  };
  return std::visit(
      Overload{
          [&](const w::DensityAtQuery& dq) {
            const auto* a = std::get_if<w::DensityAtResponse>(&r);
            if (!a) return false;
            const stkde::VoxelMapper map(reg_.domain());
            const stkde::Voxel v = map.voxel_of(dq.at);
            const double want = whole.contains(v.x, v.y, v.t)
                                    ? static_cast<double>(raw.at(v.x, v.y, v.t)) * norm
                                    : 0.0;
            return close(a->value, want);
          },
          [&](const w::RegionQuery& rq) {
            const auto* a = std::get_if<w::RegionResponse>(&r);
            if (!a || a->op != rq.op) return false;
            const double want =
                rq.op == w::RegionOp::kSum
                    ? region_fold(rq.region, [](double s, double x) { return s + x; }, 0.0) * norm
                    : region_fold(rq.region, [](double m, double x) { return std::max(m, x); }, 0.0) * norm;
            return close(a->value, want);
          },
          [&](const w::SliceQuery& sq) {
            const auto* a = std::get_if<w::SliceResponse>(&r);
            if (!a || a->t != sq.t || a->field.nx != whole.nx() ||
                a->field.ny != whole.ny())
              return false;
            for (std::int32_t X = 0; X < whole.nx(); ++X)
              for (std::int32_t Y = 0; Y < whole.ny(); ++Y)
                if (!close(a->field.at(X, Y),
                           static_cast<double>(raw.at(X, Y, sq.t)) * norm))
                  return false;
            return true;
          },
          [&](const w::HotspotsQuery& hq) {
            const auto* a = std::get_if<w::HotspotsResponse>(&r);
            if (!a) return false;
            const float thr = stkde::analysis::density_quantile(raw, hq.quantile);
            const auto clusters = stkde::analysis::extract_clusters(raw, thr);
            const std::size_t n = std::min<std::size_t>(hq.k, clusters.size());
            if (a->hotspots.size() != n) return false;
            for (std::size_t i = 0; i < n; ++i) {
              const auto& h = a->hotspots[i];
              const auto& c = clusters[i];
              if (!(h.peak == c.peak_voxel) || h.voxels != c.voxels ||
                  !close(h.peak_density, static_cast<double>(c.peak) * norm) ||
                  !close(h.mass, c.mass * norm))
                return false;
            }
            return true;
          },
          [&](const w::RegionGridQuery& gq) {
            const auto* a = std::get_if<w::RegionGridResponse>(&r);
            if (!a) return false;
            const Extent3 c = gq.region.intersect(whole);
            if (!(a->grid.extent() == c)) return false;
            for (std::int32_t X = c.xlo; X < c.xhi; ++X)
              for (std::int32_t Y = c.ylo; Y < c.yhi; ++Y)
                for (std::int32_t T = c.tlo; T < c.thi; ++T)
                  if (!close(a->grid.at(X, Y, T),
                             static_cast<double>(raw.at(X, Y, T)) * norm))
                    return false;
            return true;
          },
          [&](const w::HealthQuery&) { return false; }},
      q);
}

void Dashboard::replay(const w::QueryMessage& q, const w::Frame& frame) {
  const std::size_t k = kind_index(q);
  double t = now_s();
  const auto decoded = w::decode_query(frame.data(), frame.size());
  stages_.decode_us.push_back((now_s() - t) * 1e6);

  t = now_s();
  stkde::serve::Session s(reg_);
  s.begin_request();
  stages_.pin_us.push_back((now_s() - t) * 1e6);

  t = now_s();
  const w::ResponseMessage resp = stkde::serve::execute(s, decoded ? *decoded : q);
  stages_.execute_us[k].push_back((now_s() - t) * 1e6);

  t = now_s();
  const w::Frame f = w::encode(resp);
  stages_.encode_us.push_back((now_s() - t) * 1e6);

  if (k == 4) {  // the hotspot query's two analysis steps, on the same pin
    const auto* hq = std::get_if<w::HotspotsQuery>(&q);
    t = now_s();
    const float thr = stkde::analysis::density_quantile(*s.pinned().raw, hq->quantile);
    stages_.quantile_ms.push_back((now_s() - t) * 1e3);
    t = now_s();
    const auto clusters = stkde::analysis::extract_clusters(*s.pinned().raw, thr);
    stages_.clusters_ms.push_back((now_s() - t) * 1e3);
  }
}

void serve_layer_metrics(const Dashboard& dash,
                         const stkde::serve::ExecutorStats& es,
                         const stkde::serve::RegistryStats& rs,
                         PhaseResult& out) {
  const StageSamples& st = dash.stages();
  out.metrics.put("serve.decode_us", median_or_zero(st.decode_us), "us");
  out.metrics.put("serve.pin_us", median_or_zero(st.pin_us), "us");
  for (std::size_t k = 0; k < kQueryKinds.size(); ++k)
    out.metrics.put(std::string("serve.execute_us.") + kQueryKinds[k],
                    median_or_zero(st.execute_us[k]), "us");
  out.metrics.put("serve.encode_us", median_or_zero(st.encode_us), "us");

  // Queue share: executor latency the replayed stages do not account for,
  // as a share of executor latency, weighting each kind by its count.
  double lat = 0.0;
  double covered = 0.0;
  const double fixed_us = median_or_zero(st.decode_us) + median_or_zero(st.pin_us) +
                          median_or_zero(st.encode_us);
  for (std::size_t k = 0; k < kQueryKinds.size(); ++k) {
    const auto& l = dash.latency_ms()[k];
    if (l.empty() || st.execute_us[k].empty()) continue;
    const double n = static_cast<double>(l.size());
    const double lk = median(l) * 1e3;
    lat += n * lk;
    covered += n * std::min(lk, fixed_us + median(st.execute_us[k]));
  }
  out.metrics.put("serve.queue_share", lat > 0.0 ? 1.0 - covered / lat : 0.0,
                  "ratio");
  out.metrics.put("serve.shed", static_cast<double>(es.shed), "count");
  out.metrics.put("serve.expired",
                  static_cast<double>(es.expired_at_dequeue + es.expired_result +
                                      es.cancelled_inflight),
                  "count");
  out.metrics.put("serve.queries_per_version",
                  rs.published > 0 ? static_cast<double>(rs.pins) /
                                         static_cast<double>(rs.published)
                                   : 0.0,
                  "count");
  out.metrics.put("analysis.quantile_ms", median_or_zero(st.quantile_ms), "ms");
  out.metrics.put("analysis.clusters_ms", median_or_zero(st.clusters_ms), "ms");
  if (st.decode_us.empty())
    out.report.push_back("serve/analysis layers: no traced refresh ran, reported as 0");
}

}  // namespace perfbench
