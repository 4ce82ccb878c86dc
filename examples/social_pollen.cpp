// Social-media monitoring (the paper's PollenUS scenario): a continental
// stream of allergy-related posts, analyzed interactively. The paper's
// motivation is *near-real-time* exploration — an analyst drags a bandwidth
// slider and the density volume must re-compute within a latency budget.
//
//   $ ./social_pollen [--budget-ms 2000] [--n 200000]
//
// Compares the parallel strategies on this clustered workload and checks
// which meet the interactive budget.

#include <iostream>

#include "core/estimator.hpp"
#include "data/datasets.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace stkde;

int main(int argc, char** argv) {
  const util::CommandLine args(argc, argv, "[--budget-ms 2000] [--n 200000]");
  const double budget_ms = args.get("budget-ms", 2000.0);
  const auto n = static_cast<std::size_t>(args.get("n", 200000L));

  // Continental US at 0.05 deg, one pollen season daily: ~1300x600x84.
  const DomainSpec us{-125.0, 24.0, 0.0, 58.0, 26.0, 84.0, 0.05, 1.0};
  const PointSet tweets =
      data::generate_dataset(data::Dataset::kPollenUS, us, n, 2016);
  std::cout << "pollen-like stream: " << tweets.size() << " posts, grid "
            << us.dims().gx << "x" << us.dims().gy << "x" << us.dims().gt
            << ", latency budget " << budget_ms << " ms\n\n";

  Params params;
  params.hs = 0.5;  // degrees (~50 km)
  params.ht = 7.0;  // days
  params.decomp = {16, 16, 4};

  util::Table t({"strategy", "time (ms)", "within budget", "notes"});
  const Algorithm algs[] = {Algorithm::kPBSym, Algorithm::kPBSymDR,
                            Algorithm::kPBSymDD, Algorithm::kPBSymPD,
                            Algorithm::kPBSymPDSched,
                            Algorithm::kPBSymPDSchedRep};
  for (const Algorithm a : algs) {
    const Result r = estimate(tweets, us, params, a);
    const double ms = r.total_seconds() * 1e3;
    std::string note;
    if (r.diag.replication_factor > 1.001)
      note = "replication x" +
             util::format_fixed(r.diag.replication_factor, 2);
    if (r.diag.num_colors > 0)
      note += (note.empty() ? "" : ", ") +
              std::to_string(r.diag.num_colors) + " colors";
    t.row()
        .cell(to_string(a))
        .cell(ms, 1)
        .cell(ms <= budget_ms ? "yes" : "NO")
        .cell(note.empty() ? "-" : note);
  }
  t.print(std::cout);

  std::cout << "\nBandwidth sweep (the slider the analyst drags), "
            << "PB-SYM-PD-SCHED:\n";
  util::Table sweep({"hs (deg)", "ht (days)", "time (ms)", "peak density"});
  for (const double hs : {0.25, 0.5, 1.0}) {
    for (const double ht : {3.0, 7.0}) {
      Params p = params;
      p.hs = hs;
      p.ht = ht;
      const Result r = estimate(tweets, us, p, Algorithm::kPBSymPDSched);
      sweep.row()
          .cell(hs, 2)
          .cell(ht, 0)
          .cell(r.total_seconds() * 1e3, 1)
          .cell(static_cast<double>(r.grid.max_value()), 6);
    }
  }
  sweep.print(std::cout);
  return 0;
}
