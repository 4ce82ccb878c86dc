#include <algorithm>
#include <span>

#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "grid/reduction.hpp"
#include "partition/binning.hpp"
#include "partition/load.hpp"
#include "partition/tile_order.hpp"
#include "sched/critical_path.hpp"
#include "sched/dag_scheduler.hpp"
#include "sched/replication.hpp"
#include "sched/thread_pool.hpp"

namespace stkde::core {

// The colored-DAG strategies of §5.2: instead of Algorithm 6's 8 synchronized
// parity phases, model the subdomains as a 27-point stencil conflict graph,
// greedy-color it, orient edges low -> high color, and execute the
// resulting DAG with a dependency-counting list scheduler whose ready
// priority is the task load. Two rules refine it:
//  - SCHED colors in non-increasing load order, so heavy subdomains are
//    colored (and hence started) first, shortening the critical path;
//  - REP makes subdomains on the critical path *moldable* — their point
//    lists are split across r replica tasks, each scattering into a private
//    halo buffer (subdomain expanded by the bandwidth), followed by one
//    reduce task that adds the buffers into the grid. Replica tasks have no
//    dependencies at all; the reduce task inherits the subdomain's position
//    in the colored DAG. Replication is planned until the critical path
//    drops below T1/(2P), trading DR-style init+reduce overhead for
//    parallelism exactly where the chain is too long.
// PD-SCHED is the DAG with every replication factor 1 (one task per
// subdomain), PD-REP colors in natural order, PD-SCHED-REP applies both.
Result run_pb_sym_pd_dag(const PointSet& pts, const detail::RunSetup& s,
                         const Params& p, Algorithm a) {
  const bool load_order = a != Algorithm::kPBSymPDRep;
  const bool replicate = a != Algorithm::kPBSymPDSched;
  const int P = p.resolved_threads();
  Result res;
  res.diag.algorithm = to_string(a);

  const GridDims d = s.map.dims();
  const Decomposition dec = Decomposition::clamped(d, p.decomp, s.Hs, s.Ht);
  res.diag.decomposition = dec.to_string();
  res.diag.subdomains = dec.count();
  const std::int64_t nsub = dec.count();

  PointBins bins;
  {
    util::ScopedPhase bin(res.phases, phase::kBin);
    bins = bin_by_owner(pts, s.map, dec);
    sort_bins_by_scatter_key(bins, pts, s.map);
  }

  const sched::StencilGraph g = sched::StencilGraph::of(dec);
  const auto loads = point_count_loads(bins);
  const Extent3 whole = Extent3::whole(d);

  sched::Coloring col;
  sched::ReplicationPlan plan;
  std::vector<Extent3> halo(static_cast<std::size_t>(nsub));
  {
    util::ScopedPhase planp(res.phases, phase::kPlan);
    col = sched::greedy_coloring(g,
                                 load_order
                                     ? sched::ColoringOrder::kLoadDescending
                                     : sched::ColoringOrder::kNatural,
                                 loads);
    res.diag.num_colors = col.num_colors;
    res.diag.load_imbalance = imbalance(loads).imbalance;
    if (!replicate) {
      // Every factor 1; T1 and Tinf in point units.
      plan.factor.assign(static_cast<std::size_t>(nsub), 1);
      const sched::DagMetrics m = sched::critical_path(g, col, loads);
      res.diag.total_work = m.total_work;
      res.diag.critical_path = m.critical_path;
    } else {
      // Cost model in "operation" units: processing a point costs its
      // cylinder volume of multiply-adds; replicating a subdomain costs one
      // buffer init plus one reduction over its halo volume.
      const double per_point = (2.0 * s.Hs + 1.0) * (2.0 * s.Hs + 1.0) *
                               (2.0 * s.Ht + 1.0);
      std::vector<double> compute_costs(static_cast<std::size_t>(nsub));
      std::vector<double> reduce_costs(static_cast<std::size_t>(nsub));
      for (std::int64_t v = 0; v < nsub; ++v) {
        const auto sv = static_cast<std::size_t>(v);
        halo[sv] = dec.subdomain(v).expanded(s.Hs, s.Ht).intersect(whole);
        compute_costs[sv] = loads[sv] * per_point;
        reduce_costs[sv] = 2.0 * static_cast<double>(halo[sv].volume());
      }
      sched::ReplicationParams rp;
      rp.P = P;
      plan = sched::plan_replication(g, col, compute_costs, reduce_costs, rp);
      res.diag.total_work = plan.total_work;
      res.diag.critical_path = plan.final_cp;
      double fsum = 0.0;
      std::uint64_t buf_bytes = 0;
      for (std::int64_t v = 0; v < nsub; ++v) {
        const auto sv = static_cast<std::size_t>(v);
        const auto f = plan.factor[sv];
        fsum += f;
        if (f > 1)
          buf_bytes += static_cast<std::uint64_t>(f) *
                       static_cast<std::uint64_t>(halo[sv].volume()) *
                       sizeof(float);
      }
      res.diag.replication_factor = fsum / static_cast<double>(nsub);
      res.diag.extra_bytes = buf_bytes;
      // Conservative OOM guard: all replica buffers live at once, plus the
      // grid itself (reproduces the paper's Fig. 14 OOM at low decomposition).
      util::MemoryBudget::instance().require(
          buf_bytes + static_cast<std::uint64_t>(d.voxels()) * sizeof(float));
    }
  }

  sched::ThreadPool pool(P);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(d);
    res.grid.fill_parallel(0.0f, pool);
  }

  util::ScopedPhase compute(res.phases, phase::kCompute);
  // Replica buffers, per replicated subdomain.
  std::vector<std::vector<DenseGrid3<float>>> buffers(
      static_cast<std::size_t>(nsub));
  // Tile treatment: every scatter task (direct or replica) stamps through
  // its worker's table cache, which persists for the whole DAG run.
  detail::StampScratches scratch(s.Hs, P);
  detail::with_kernel(p.kernel, [&](const auto& k) {
    sched::DagScheduler dag;
    // write_task[v]: the task that mutates the shared grid for subdomain v
    // (the direct task when r=1, the reduce task when r>1).
    std::vector<std::size_t> write_task(static_cast<std::size_t>(nsub));

    auto scatter_points = [&](DenseGrid3<float>& target, const Extent3& clip,
                              std::span<const std::uint32_t> idxs) {
      detail::stamp_bin(target, clip, s, k, pts, idxs, scratch.of(&pool));
    };

    for (std::int64_t v = 0; v < nsub; ++v) {
      const auto sv = static_cast<std::size_t>(v);
      const std::int32_t r = plan.factor[sv];
      const auto& idxs = bins.bins[sv];
      if (r <= 1) {
        write_task[sv] = dag.add_task(
            [&, sv] { scatter_points(res.grid, whole, bins.bins[sv]); },
            loads[sv]);
        continue;
      }
      // r replica tasks into private halo buffers; dependency-free.
      buffers[sv].resize(static_cast<std::size_t>(r));
      std::vector<std::size_t> replica_ids;
      const std::size_t chunk = (idxs.size() + r - 1) / static_cast<std::size_t>(r);
      for (std::int32_t rep = 0; rep < r; ++rep) {
        const std::size_t lo = std::min(idxs.size(), rep * chunk);
        const std::span<const std::uint32_t> part =
            std::span<const std::uint32_t>(idxs).subspan(
                lo, std::min(idxs.size() - lo, chunk));
        replica_ids.push_back(dag.add_task(
            [&, sv, rep, part] {
              DenseGrid3<float>& buf = buffers[sv][static_cast<std::size_t>(rep)];
              buf.allocate(halo[sv]);
              buf.fill(0.0f);
              scatter_points(buf, halo[sv], part);
            },
            loads[sv] / r));
      }
      // The reduce task inherits v's DAG position.
      write_task[sv] = dag.add_task(
          [&, sv] {
            for (auto& buf : buffers[sv]) accumulate_buffer(res.grid, buf);
            buffers[sv].clear();  // free the halo memory promptly
          },
          loads[sv]);
      for (const std::size_t rid : replica_ids)
        dag.add_edge(rid, write_task[sv]);
    }
    sched::add_color_edges(dag, g, col, write_task);
    dag.run(pool);
    res.diag.task_seconds.resize(dag.task_count());
    for (std::size_t i = 0; i < dag.task_count(); ++i)
      res.diag.task_seconds[i] = dag.finish_times()[i] - dag.start_times()[i];
  });
  scratch.lanes().store(res.diag);
  return res;
}

}  // namespace stkde::core
