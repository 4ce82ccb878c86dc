#include <algorithm>
#include <span>

#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "grid/reduction.hpp"
#include "partition/binning.hpp"
#include "partition/load.hpp"
#include "partition/tile_order.hpp"
#include "sched/dag_scheduler.hpp"
#include "sched/replication.hpp"
#include "sched/thread_pool.hpp"

namespace stkde::core {

// PB-SYM-PD-REP (§5.2): like PD-SCHED, but subdomains on the critical path
// are made *moldable* — their point lists are split across r replica tasks,
// each scattering into a private halo buffer (subdomain expanded by the
// bandwidth), followed by one reduce task that adds the buffers into the
// grid. Replica tasks have no dependencies at all; the reduce task inherits
// the subdomain's position in the colored DAG. Replication is planned until
// the critical path drops below T1/(2P), trading DR-style init+reduce
// overhead for parallelism exactly where the chain is too long.
Result run_pb_sym_pd_rep(const PointSet& pts, const detail::RunSetup& s,
                         const Params& p, bool use_sched_coloring) {
  const int P = p.resolved_threads();
  Result res;
  res.diag.algorithm = to_string(use_sched_coloring
                                     ? Algorithm::kPBSymPDSchedRep
                                     : Algorithm::kPBSymPDRep);

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
                                 use_sched_coloring
                                     ? sched::ColoringOrder::kLoadDescending
                                     : sched::ColoringOrder::kNatural,
                                 loads);
    // Cost model in "operation" units: processing a point costs its cylinder
    // volume of multiply-adds; replicating a subdomain costs one buffer
    // init plus one reduction over its halo volume.
    const double per_point = (2.0 * s.Hs + 1.0) * (2.0 * s.Hs + 1.0) *
                             (2.0 * s.Ht + 1.0);
    std::vector<double> compute_costs(static_cast<std::size_t>(nsub));
    std::vector<double> reduce_costs(static_cast<std::size_t>(nsub));
    for (std::int64_t v = 0; v < nsub; ++v) {
      halo[static_cast<std::size_t>(v)] =
          dec.subdomain(v).expanded(s.Hs, s.Ht).intersect(whole);
      compute_costs[static_cast<std::size_t>(v)] =
          loads[static_cast<std::size_t>(v)] * per_point;
      reduce_costs[static_cast<std::size_t>(v)] =
          2.0 * static_cast<double>(halo[static_cast<std::size_t>(v)].volume());
    }
    sched::ReplicationParams rp;
    rp.P = P;
    plan = sched::plan_replication(g, col, compute_costs, reduce_costs, rp);
    res.diag.num_colors = col.num_colors;
    res.diag.total_work = plan.total_work;
    res.diag.critical_path = plan.final_cp;
    res.diag.load_imbalance = imbalance(loads).imbalance;
    double fsum = 0.0;
    std::uint64_t buf_bytes = 0;
    for (std::int64_t v = 0; v < nsub; ++v) {
      const auto f = plan.factor[static_cast<std::size_t>(v)];
      fsum += f;
      if (f > 1)
        buf_bytes += static_cast<std::uint64_t>(f) *
                     static_cast<std::uint64_t>(
                         halo[static_cast<std::size_t>(v)].volume()) *
                     sizeof(float);
    }
    res.diag.replication_factor = fsum / static_cast<double>(nsub);
    res.diag.extra_bytes = buf_bytes;
    // Conservative OOM guard: all replica buffers live at once, plus the
    // grid itself (reproduces the paper's Fig. 14 OOM at low decomposition).
    util::MemoryBudget::instance().require(
        buf_bytes + static_cast<std::uint64_t>(d.voxels()) * sizeof(float));
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
