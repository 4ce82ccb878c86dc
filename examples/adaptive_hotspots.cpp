// Adaptive-bandwidth hotspot mapping — the paper's §8 future work in action.
// Fixed bandwidths face a dilemma on clustered data: small hs resolves the
// urban core but shatters rural areas into noise; large hs smooths the
// countryside but blurs the core. kNN-adaptive bandwidths give every event
// the bandwidth its local density warrants.
//
//   $ ./adaptive_hotspots [--n 40000] [--k 15] [--out /tmp]
//
// Compares fixed (Silverman) vs adaptive estimates on the same events and
// writes both heatmaps.

#include <iostream>

#include "analysis/clusters.hpp"
#include "core/adaptive.hpp"
#include "core/estimator.hpp"
#include "data/datasets.hpp"
#include "io/pgm.hpp"
#include "io/slice.hpp"
#include "kernels/bandwidth.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace stkde;

int main(int argc, char** argv) {
  const util::CommandLine args(argc, argv, "[--n 40000] [--k 15] [--out DIR]");
  const auto n = static_cast<std::size_t>(args.get("n", 40000L));
  const int k = args.get("k", 15);
  const std::string out = args.get("out", std::string("."));

  // A region with a dense metro plus scattered rural cases.
  const DomainSpec region{0, 0, 0, 400.0, 400.0, 90.0, 1.0, 1.0};
  const PointSet cases =
      data::generate_dataset(data::Dataset::kDengue, region, n, 77);

  // Fixed bandwidth: Silverman's rule of thumb.
  const kernels::SilvermanBandwidth rot = kernels::silverman_bandwidth(cases);
  Params fixed;
  fixed.hs = rot.hs;
  fixed.ht = std::max(1.0, rot.ht);
  std::cout << "Silverman rule of thumb: hs=" << rot.hs << ", ht=" << rot.ht
            << "\n";
  const Result rf = estimate(cases, region, fixed, Algorithm::kPBSymPDSched);

  // Adaptive: k-th nearest neighbor distance, clamped.
  core::AdaptiveParams ap;
  kernels::AdaptiveClamp clamp;
  clamp.min_hs = 2.0;
  clamp.max_hs = 60.0;
  ap.hs = kernels::knn_adaptive_bandwidths(cases, k, clamp);
  ap.ht = fixed.ht;
  util::RunningStats hstats;
  for (const double h : ap.hs) hstats.add(h);
  std::cout << "adaptive bandwidths (k=" << k << "): min=" << hstats.min()
            << " mean=" << hstats.mean() << " max=" << hstats.max() << "\n\n";
  const Result ra =
      core::run_adaptive(cases, region, ap, Algorithm::kPBSymPDSched);

  util::Table t({"estimate", "time (s)", "peak", "hotspots @99.5%",
                 "largest hotspot voxels"});
  for (const auto& [label, r] :
       {std::pair<const char*, const Result*>{"fixed (Silverman)", &rf},
        {"adaptive (kNN)", &ra}}) {
    const float thr = analysis::density_quantile(r->grid, 0.995);
    const auto clusters = analysis::extract_clusters(r->grid, thr);
    t.row()
        .cell(label)
        .cell(r->total_seconds(), 3)
        .cell(static_cast<double>(r->grid.max_value()), 7)
        .cell(static_cast<std::uint64_t>(clusters.size()))
        .cell(clusters.empty()
                  ? std::uint64_t{0}
                  : static_cast<std::uint64_t>(clusters[0].voxels));
  }
  t.print(std::cout);

  io::write_pgm(out + "/hotspots_fixed.pgm", io::time_aggregate(rf.grid));
  io::write_pgm(out + "/hotspots_adaptive.pgm", io::time_aggregate(ra.grid));
  std::cout << "\nwrote " << out << "/hotspots_fixed.pgm and "
            << out << "/hotspots_adaptive.pgm\n"
            << "(the adaptive map resolves the metro core sharply while "
               "keeping rural areas smooth)\n";
  return 0;
}
