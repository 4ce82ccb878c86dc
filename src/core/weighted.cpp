#include "core/weighted.hpp"

#include <cmath>
#include <numeric>
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

std::string to_string(WeightedStrategy s) {
  switch (s) {
    case WeightedStrategy::kReference: return "W-STKDE-VB";
    case WeightedStrategy::kSequential: return "W-STKDE-SYM";
    case WeightedStrategy::kPDSched: return "W-STKDE-PD-SCHED";
  }
  return "?";
}

namespace {

double validated_weight_sum(const PointSet& pts,
                            const std::vector<double>& w) {
  if (w.size() != pts.size())
    throw std::invalid_argument("run_weighted: one weight per point required");
  double sum = 0.0;
  for (const double x : w) {
    if (!(x >= 0.0) || !std::isfinite(x))
      throw std::invalid_argument(
          "run_weighted: weights must be finite and >= 0");
    sum += x;
  }
  return sum;
}

Result run_reference(const PointSet& pts, const std::vector<double>& w,
                     double wsum, const DomainSpec& dom, const Params& p) {
  const VoxelMapper map(dom);
  Result res;
  res.diag.algorithm = to_string(WeightedStrategy::kReference);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(map.dims());
    res.grid.fill(0.0f);
  }
  if (wsum <= 0.0) return res;
  util::ScopedPhase compute(res.phases, phase::kCompute);
  const GridDims d = map.dims();
  const double inv_hs = 1.0 / p.hs, inv_ht = 1.0 / p.ht;
  const double scale = 1.0 / (wsum * p.hs * p.hs * p.ht);
  detail::with_kernel(p.kernel, [&](const auto& k) {
    for (std::int32_t X = 0; X < d.gx; ++X) {
      const double x = map.x_of(X);
      for (std::int32_t Y = 0; Y < d.gy; ++Y) {
        const double y = map.y_of(Y);
        float* const row = res.grid.row(X, Y);
        for (std::int32_t T = 0; T < d.gt; ++T) {
          const double t = map.t_of(T);
          double sum = 0.0;
          for (std::size_t i = 0; i < pts.size(); ++i) {
            const double ks =
                k.spatial((x - pts[i].x) * inv_hs, (y - pts[i].y) * inv_hs);
            if (ks == 0.0) continue;
            sum += w[i] * ks * k.temporal((t - pts[i].t) * inv_ht);
          }
          row[T] = static_cast<float>(sum * scale);
        }
      }
    }
  });
  return res;
}

Result run_sequential(const PointSet& pts, const std::vector<double>& w,
                      double wsum, const DomainSpec& dom, const Params& p) {
  const VoxelMapper map(dom);
  const std::int32_t Hs = dom.spatial_bandwidth_voxels(p.hs);
  const std::int32_t Ht = dom.temporal_bandwidth_voxels(p.ht);
  Result res;
  res.diag.algorithm = to_string(WeightedStrategy::kSequential);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(map.dims());
    res.grid.fill(0.0f);
  }
  if (wsum <= 0.0) return res;
  util::ScopedPhase compute(res.phases, phase::kCompute);
  const Extent3 whole = Extent3::whole(map.dims());
  const double base = 1.0 / (wsum * p.hs * p.hs * p.ht);
  detail::with_kernel(p.kernel, [&](const auto& k) {
    kernels::SpatialInvariant ks;
    kernels::TemporalInvariant kt;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (w[i] == 0.0) continue;
      detail::scatter_sym(res.grid, whole, map, k, pts[i], p.hs, p.ht, Hs, Ht,
                          base * w[i], ks, kt);
    }
  });
  return res;
}

Result run_pd_sched(const PointSet& pts, const std::vector<double>& w,
                    double wsum, const DomainSpec& dom, const Params& p) {
  const VoxelMapper map(dom);
  const std::int32_t Hs = dom.spatial_bandwidth_voxels(p.hs);
  const std::int32_t Ht = dom.temporal_bandwidth_voxels(p.ht);
  const int P = p.resolved_threads();
  Result res;
  res.diag.algorithm = to_string(WeightedStrategy::kPDSched);

  const Decomposition dec = Decomposition::clamped(map.dims(), p.decomp, Hs, Ht);
  res.diag.decomposition = dec.to_string();
  res.diag.subdomains = dec.count();

  PointBins bins;
  {
    util::ScopedPhase bin(res.phases, phase::kBin);
    bins = bin_by_owner(pts, map, dec);
  }
  // Task loads weigh each point by its multiplicity surrogate: the cost of
  // scattering is bandwidth-determined, but weight-0 points are skipped, so
  // load = count of positive-weight points.
  std::vector<double> loads(static_cast<std::size_t>(dec.count()), 0.0);
  for (std::size_t v = 0; v < loads.size(); ++v)
    for (const std::uint32_t i : bins.bins[v])
      if (w[i] > 0.0) loads[v] += 1.0;

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
    res.grid.allocate(map.dims());
    res.grid.fill_parallel(0.0f, pool);
  }
  if (wsum <= 0.0) return res;
  util::ScopedPhase compute(res.phases, phase::kCompute);
  const Extent3 whole = Extent3::whole(map.dims());
  const double base = 1.0 / (wsum * p.hs * p.hs * p.ht);
  detail::with_kernel(p.kernel, [&](const auto& k) {
    sched::DagScheduler dag;
    for (std::int64_t v = 0; v < dec.count(); ++v) {
      dag.add_task(
          [&, v] {
            kernels::SpatialInvariant ks;
            kernels::TemporalInvariant kt;
            for (const std::uint32_t i :
                 bins.bins[static_cast<std::size_t>(v)]) {
              if (w[i] == 0.0) continue;
              detail::scatter_sym(res.grid, whole, map, k, pts[i], p.hs, p.ht,
                                  Hs, Ht, base * w[i], ks, kt);
            }
          },
          loads[static_cast<std::size_t>(v)]);
    }
    sched::add_color_edges(dag, g, col);
    dag.run(pool);
  });
  return res;
}

}  // namespace

Result run_weighted(const PointSet& points, const std::vector<double>& weights,
                    const DomainSpec& dom, const Params& params,
                    WeightedStrategy strategy) {
  dom.validate();
  params.validate();
  const double wsum = validated_weight_sum(points, weights);
  switch (strategy) {
    case WeightedStrategy::kReference:
      return run_reference(points, weights, wsum, dom, params);
    case WeightedStrategy::kSequential:
      return run_sequential(points, weights, wsum, dom, params);
    case WeightedStrategy::kPDSched:
      return run_pd_sched(points, weights, wsum, dom, params);
  }
  throw std::invalid_argument("run_weighted: unknown strategy");
}

}  // namespace stkde::core
