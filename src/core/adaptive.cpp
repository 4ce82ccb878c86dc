#include "core/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "partition/binning.hpp"
#include "partition/load.hpp"
#include "sched/critical_path.hpp"
#include "sched/dag_scheduler.hpp"
#include "sched/thread_pool.hpp"
#include "util/env.hpp"

namespace stkde::core {

void AdaptiveParams::validate(std::size_t n_points) const {
  if (hs.size() != n_points)
    throw std::invalid_argument(
        "AdaptiveParams: one bandwidth per point required");
  for (const double h : hs)
    if (!(h > 0.0) || !std::isfinite(h))
      throw std::invalid_argument("AdaptiveParams: bandwidths must be > 0");
  if (!(ht > 0.0)) throw std::invalid_argument("AdaptiveParams: ht must be > 0");
  if (threads < 0)
    throw std::invalid_argument("AdaptiveParams: threads must be >= 0");
}

std::string to_string(AdaptiveStrategy s) {
  switch (s) {
    case AdaptiveStrategy::kReference: return "A-STKDE-VB";
    case AdaptiveStrategy::kSequential: return "A-STKDE-SYM";
    case AdaptiveStrategy::kPDSched: return "A-STKDE-PD-SCHED";
  }
  return "?";
}

namespace {

struct AdaptiveSetup {
  VoxelMapper map;
  std::int32_t Ht;
  std::int32_t max_Hs;
  std::vector<std::int32_t> Hs;      // per point
  std::vector<double> scale;         // 1/(n h_i^2 ht) per point

  AdaptiveSetup(const PointSet& pts, const DomainSpec& dom,
                const AdaptiveParams& p)
      : map(dom), Ht(dom.temporal_bandwidth_voxels(p.ht)), max_Hs(1) {
    Hs.reserve(pts.size());
    scale.reserve(pts.size());
    const double n = std::max<double>(1.0, static_cast<double>(pts.size()));
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const std::int32_t h = dom.spatial_bandwidth_voxels(p.hs[i]);
      Hs.push_back(h);
      max_Hs = std::max(max_Hs, h);
      scale.push_back(1.0 / (n * p.hs[i] * p.hs[i] * p.ht));
    }
  }
};

Result run_reference(const PointSet& pts, const DomainSpec& dom,
                     const AdaptiveParams& p) {
  const AdaptiveSetup s(pts, dom, p);
  Result res;
  res.diag.algorithm = to_string(AdaptiveStrategy::kReference);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(s.map.dims());
    res.grid.fill(0.0f);
  }
  util::ScopedPhase compute(res.phases, phase::kCompute);
  const GridDims d = s.map.dims();
  const double inv_ht = 1.0 / p.ht;
  detail::with_kernel(p.kernel, [&](const auto& k) {
    for (std::int32_t X = 0; X < d.gx; ++X) {
      const double x = s.map.x_of(X);
      for (std::int32_t Y = 0; Y < d.gy; ++Y) {
        const double y = s.map.y_of(Y);
        float* const row = res.grid.row(X, Y);
        for (std::int32_t T = 0; T < d.gt; ++T) {
          const double t = s.map.t_of(T);
          double sum = 0.0;
          for (std::size_t i = 0; i < pts.size(); ++i) {
            const double inv_h = 1.0 / p.hs[i];
            const double u = (x - pts[i].x) * inv_h;
            const double v = (y - pts[i].y) * inv_h;
            const double ks = k.spatial(u, v);
            if (ks == 0.0) continue;
            const double w = (t - pts[i].t) * inv_ht;
            // Per-point normalization replaces the global 1/(n hs^2 ht).
            sum += ks * k.temporal(w) * s.scale[i];
          }
          row[T] = static_cast<float>(sum);
        }
      }
    }
  });
  return res;
}

Result run_sequential(const PointSet& pts, const DomainSpec& dom,
                      const AdaptiveParams& p) {
  const AdaptiveSetup s(pts, dom, p);
  Result res;
  res.diag.algorithm = to_string(AdaptiveStrategy::kSequential);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(s.map.dims());
    res.grid.fill(0.0f);
  }
  util::ScopedPhase compute(res.phases, phase::kCompute);
  const Extent3 whole = Extent3::whole(s.map.dims());
  detail::with_kernel(p.kernel, [&](const auto& k) {
    kernels::SpatialInvariant ks;
    kernels::TemporalInvariant kt;
    for (std::size_t i = 0; i < pts.size(); ++i)
      detail::scatter_sym(res.grid, whole, s.map, k, pts[i], p.hs[i], p.ht,
                          s.Hs[i], s.Ht, s.scale[i], ks, kt);
  });
  return res;
}

Result run_pd_sched(const PointSet& pts, const DomainSpec& dom,
                    const AdaptiveParams& p) {
  const AdaptiveSetup s(pts, dom, p);
  const int P = p.threads > 0 ? p.threads : util::hardware_threads();
  Result res;
  res.diag.algorithm = to_string(AdaptiveStrategy::kPDSched);

  // The PD safety rule generalizes with the *maximum* bandwidth: two points
  // in same-colored subdomains are at least 2 max_Hs apart, so even the
  // widest cylinders cannot overlap.
  const Decomposition dec =
      Decomposition::clamped(s.map.dims(), p.decomp, s.max_Hs, s.Ht);
  res.diag.decomposition = dec.to_string();
  res.diag.subdomains = dec.count();

  PointBins bins;
  {
    util::ScopedPhase bin(res.phases, phase::kBin);
    bins = bin_by_owner(pts, s.map, dec);
  }
  // Task loads: adaptive cylinders vary per point, so weigh by volume.
  std::vector<double> loads(static_cast<std::size_t>(dec.count()), 0.0);
  for (std::size_t v = 0; v < loads.size(); ++v)
    for (const std::uint32_t i : bins.bins[v]) {
      const double side = 2.0 * s.Hs[i] + 1.0;
      loads[v] += side * side * (2.0 * s.Ht + 1.0);
    }

  const sched::StencilGraph g = sched::StencilGraph::of(dec);
  sched::Coloring col;
  {
    util::ScopedPhase plan(res.phases, phase::kPlan);
    col = sched::greedy_coloring(g, p.order, loads);
    const sched::DagMetrics m = sched::critical_path(g, col, loads);
    res.diag.num_colors = col.num_colors;
    res.diag.total_work = m.total_work;
    res.diag.critical_path = m.critical_path;
    res.diag.load_imbalance = imbalance(loads).imbalance;
  }
  sched::ThreadPool pool(P);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(s.map.dims());
    res.grid.fill_parallel(0.0f, pool);
  }
  util::ScopedPhase compute(res.phases, phase::kCompute);
  const Extent3 whole = Extent3::whole(s.map.dims());
  detail::with_kernel(p.kernel, [&](const auto& k) {
    sched::DagScheduler dag;
    for (std::int64_t v = 0; v < dec.count(); ++v) {
      dag.add_task(
          [&, v] {
            kernels::SpatialInvariant ks;
            kernels::TemporalInvariant kt;
            for (const std::uint32_t i :
                 bins.bins[static_cast<std::size_t>(v)])
              detail::scatter_sym(res.grid, whole, s.map, k, pts[i], p.hs[i],
                                  p.ht, s.Hs[i], s.Ht, s.scale[i], ks, kt);
          },
          loads[static_cast<std::size_t>(v)]);
    }
    sched::add_color_edges(dag, g, col);
    dag.run(pool);
    res.diag.task_seconds.resize(dag.task_count());
    for (std::size_t i = 0; i < dag.task_count(); ++i)
      res.diag.task_seconds[i] =
          dag.finish_times()[i] - dag.start_times()[i];
  });
  return res;
}

}  // namespace

Result run_adaptive(const PointSet& points, const DomainSpec& dom,
                    const AdaptiveParams& params, AdaptiveStrategy strategy) {
  dom.validate();
  params.validate(points.size());
  switch (strategy) {
    case AdaptiveStrategy::kReference:
      return run_reference(points, dom, params);
    case AdaptiveStrategy::kSequential:
      return run_sequential(points, dom, params);
    case AdaptiveStrategy::kPDSched:
      return run_pd_sched(points, dom, params);
  }
  throw std::invalid_argument("run_adaptive: unknown strategy");
}

}  // namespace stkde::core
