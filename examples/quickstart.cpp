// Quickstart: the 30-line tour of the public API.
//
//   $ ./quickstart
//
// Loads (here: generates) events, builds a domain around them, runs the
// paper's best parallel strategy, and reports the density peak.

#include <iostream>

#include "core/estimator.hpp"
#include "data/datasets.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace stkde;
  const util::CommandLine args(argc, argv, "");  // --help, or no arguments

  // 1. Events: (x, y, t) triples — e.g. meters and days. Real data would
  //    come from data::read_csv_file("events.csv").
  const DomainSpec city{0.0, 0.0, 0.0, 10'000.0, 8'000.0, 365.0, 50.0, 1.0};
  const PointSet events = data::generate_dataset(data::Dataset::kDengue, city,
                                                 20'000, /*seed=*/42);

  // 2. Domain: 50 m spatial resolution, 1 day temporal resolution — or just
  //    cover the data: DomainSpec::covering(BoundingBox3::of(events), 50, 1).
  std::cout << "grid: " << city.dims().gx << " x " << city.dims().gy << " x "
            << city.dims().gt << " voxels\n";

  // 3. Parameters: 500 m spatial bandwidth, 7 day temporal bandwidth.
  Params params;
  params.hs = 500.0;
  params.ht = 7.0;

  // 4. Run. PB-SYM-PD-SCHED is the paper's work-efficient scheduled
  //    strategy; Algorithm::kPBSym is the fastest sequential one.
  const Result result =
      estimate(events, city, params, Algorithm::kPBSymPDSched);

  // 5. Use the density volume.
  std::cout << "peak density: " << result.grid.max_value() << "\n"
            << "total time:   " << result.total_seconds() << " s ("
            << result.diag.algorithm << ", "
            << result.diag.decomposition << " subdomain grid)\n";
  for (const auto& ph : result.phases.phases())
    std::cout << "  " << ph << ": " << result.phases.seconds(ph) << " s\n";
  return 0;
}
