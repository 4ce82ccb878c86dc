// Figure 14: PB-SYM-PD-REP speedup with 16 threads across decompositions.
// Shapes to reproduce: at very small decompositions REP degenerates to DR
// (whole-domain replica buffers) — speedup near 0 on init-heavy instances
// and OOM on the largest grids; at moderate decompositions replication of
// critical-path subdomains recovers parallelism that plain PD cannot reach.

#include <iostream>

#include "common.hpp"
#include "geom/voxel_mapper.hpp"
#include "partition/binning.hpp"
#include "partition/load.hpp"
#include "sched/replication.hpp"
#include "sched/simulator.hpp"
#include "util/memory.hpp"

using namespace stkde;

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const bench::BenchEnv env = bench::bench_env(cli);
  bench::print_banner("Figure 14 — PB-SYM-PD-REP speedup, 16 threads", env);
  const int P = 16;

  std::vector<std::string> headers = {"Instance"};
  for (const auto d : bench::decomp_sweep())
    headers.push_back(std::to_string(d) + "^3");
  util::Table t(headers);

  for (const auto& spec : data::laptop_catalog(env.budget)) {
    const data::Instance& inst = bench::load_instance(spec);
    const Result seq = estimate(inst.points, inst.domain,
                                bench::instance_params(inst, 1),
                                Algorithm::kPBSym);
    const double base = seq.total_seconds();
    const double init_seq = seq.phases.seconds(phase::kInit);
    auto& row = t.row().cell(spec.name);
    for (const auto d : bench::decomp_sweep()) {
      Params p = bench::instance_params(inst, 1);
      p.decomp = DecompRequest{d, d, d};
      p.threads = P;  // plan replication for the target machine
      // Plan from measured-quality loads; simulate the expanded DAG.
      const Decomposition dec = Decomposition::clamped(
          inst.domain.dims(), p.decomp, spec.Hs, spec.Ht);
      const VoxelMapper map(inst.domain);
      const auto loads =
          point_count_loads(bin_by_owner(inst.points, map, dec));
      const sched::StencilGraph g = sched::StencilGraph::of(dec);
      const sched::Coloring col = sched::greedy_coloring(
          g, sched::ColoringOrder::kLoadDescending, loads);

      // Convert loads/halos into seconds using the measured PB-SYM rates.
      const double per_point =
          inst.points.empty() ? 0.0
                              : seq.phases.seconds(phase::kCompute) /
                                    static_cast<double>(inst.points.size());
      const double sec_per_voxel =
          init_seq / static_cast<double>(inst.domain.dims().voxels());
      std::vector<double> compute(loads.size()), reduce(loads.size());
      const Extent3 whole = Extent3::whole(inst.domain.dims());
      std::uint64_t buf_bytes = 0;
      for (std::size_t v = 0; v < loads.size(); ++v) {
        compute[v] = loads[v] * per_point;
        const Extent3 halo = dec.subdomain(static_cast<std::int64_t>(v))
                                 .expanded(spec.Hs, spec.Ht)
                                 .intersect(whole);
        reduce[v] = 2.0 * static_cast<double>(halo.volume()) * sec_per_voxel;
      }
      sched::ReplicationParams rp;
      rp.P = P;
      const sched::ReplicationPlan plan =
          sched::plan_replication(g, col, compute, reduce, rp);
      for (std::size_t v = 0; v < loads.size(); ++v)
        if (plan.factor[v] > 1) {
          const Extent3 halo = dec.subdomain(static_cast<std::int64_t>(v))
                                   .expanded(spec.Hs, spec.Ht)
                                   .intersect(whole);
          buf_bytes += static_cast<std::uint64_t>(plan.factor[v]) *
                       static_cast<std::uint64_t>(halo.volume()) * 4;
        }
      // OOM verdict at paper scale (Fig. 14: Flu Hr runs out of memory
      // for small decompositions).
      if (bench::paper_scale_oom(spec, buf_bytes + spec.grid_bytes())) {
        row.cell("OOM");
        continue;
      }
      const auto eff = sched::effective_weights(compute, reduce, plan.factor);
      const double span =
          sched::simulate_dag_schedule(g, col, eff, P, loads).makespan;
      const double sim = bench::mem_phase(init_seq, P,
                                          env.memory_parallel_cap) +
                         span;
      row.cell(base > 0.0 && sim > 0.0 ? base / sim : 0.0, 2);
    }
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n[cells: simulated 16-thread speedup of the replicated "
               "DAG (moldable tasks; weights from measured PB-SYM rates); "
               "OOM = replica buffers at paper scale exceed the paper "
               "machine's 128 GB]\n";
  t.print(std::cout);
  bench::JsonArtifact json("fig14_pd_rep_speedup", env, cli);
  json.add_table("rows", t);
  json.write();
  return 0;
}
