// Ablation (extension, not a paper figure): cost of adaptive-bandwidth
// STKDE (§8 future work) relative to fixed-bandwidth PB-SYM on the laptop
// catalog. Adaptive work is sum_i Hs_i^2 Ht instead of n Hs^2 Ht — on
// clustered data most points are in dense regions with *small* adaptive
// bandwidths, so adaptive is often cheaper than a fixed bandwidth with the
// same smoothing at the sparse tail. The adaptive runs go through the same
// PB-SYM and PB-SYM-PD-SCHED code as the fixed one.

#include <iostream>

#include "common.hpp"
#include "core/adaptive.hpp"
#include "kernels/bandwidth.hpp"
#include "util/stats.hpp"

using namespace stkde;

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const bench::BenchEnv env = bench::bench_env(cli);
  bench::print_banner(
      "Ablation — adaptive-bandwidth STKDE vs fixed PB-SYM (extension)", env);

  util::Table t({"Instance", "fixed hs", "adapt mean", "adapt max",
                 "fixed (s)", "adaptive (s)", "adaptive PD-SCHED (s)"});
  for (const auto& spec : data::laptop_catalog(env.budget)) {
    const data::Instance& inst = bench::load_instance(spec);
    // Fixed baseline at the instance's own bandwidth.
    const Params fixed = bench::instance_params(inst, 1);
    const Result rf = estimate(inst.points, inst.domain, fixed,
                               Algorithm::kPBSym);

    // Adaptive: k = 15 neighbors, clamped to [hs/4, 2 hs] (the upper clamp
    // bounds the worst-case work at 4x the fixed baseline).
    core::AdaptiveParams ap;
    kernels::AdaptiveClamp clamp;
    clamp.min_hs = std::max(0.5, inst.hs / 4.0);
    clamp.max_hs = inst.hs * 2.0;
    ap.hs = kernels::knn_adaptive_bandwidths(inst.points, 15, clamp);
    ap.ht = inst.ht;
    ap.threads = 1;
    util::RunningStats hs;
    for (const double h : ap.hs) hs.add(h);

    const Result ra =
        core::run_adaptive(inst.points, inst.domain, ap, Algorithm::kPBSym);
    ap.threads = env.real_threads;
    const Result rp = core::run_adaptive(inst.points, inst.domain, ap,
                                         Algorithm::kPBSymPDSched);
    t.row()
        .cell(spec.name)
        .cell(inst.hs, 1)
        .cell(hs.mean(), 2)
        .cell(hs.max(), 2)
        .cell(rf.total_seconds(), 3)
        .cell(ra.total_seconds(), 3)
        .cell(rp.total_seconds(), 3);
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n";
  t.print(std::cout);
  bench::JsonArtifact json("ablation_adaptive", env, cli);
  json.add_table("rows", t);
  json.write();
  return 0;
}
