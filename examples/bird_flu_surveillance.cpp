// Wildlife disease surveillance (the paper's Flu scenario): sparse avian-flu
// observations scattered over a near-global domain. This is the
// *initialization-dominated* regime — the density grid dwarfs the kernel
// work — where strategy choice is about memory, not flops: domain
// replication (DR) can exceed memory outright, and no strategy beats the
// memory-bound init floor (paper §6.3, Fig. 7/8).
//
//   $ ./bird_flu_surveillance [--n 30000]

#include <iostream>

#include "core/estimator.hpp"
#include "data/datasets.hpp"
#include "io/slice.hpp"
#include "util/args.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"

using namespace stkde;

int main(int argc, char** argv) {
  const util::CommandLine args(argc, argv, "[--n 30000]");
  const auto n = static_cast<std::size_t>(args.get("n", 30000L));

  // Alaska-to-Japan domain at 0.5 deg, 15 years of 3-day slices:
  // ~460x240x1800 voxels, ~0.8 GB of float density for 30k observations.
  const DomainSpec world{-180.0, -60.0, 0.0, 230.0, 120.0, 5475.0, 0.5, 3.0};
  const PointSet birds =
      data::generate_dataset(data::Dataset::kFlu, world, n, 2001);
  const std::uint64_t grid_bytes =
      static_cast<std::uint64_t>(world.dims().voxels()) * 4;
  std::cout << "avian-flu observations: " << birds.size() << ", grid "
            << world.dims().gx << "x" << world.dims().gy << "x"
            << world.dims().gt << " (" << util::format_bytes(grid_bytes)
            << " of density)\n\n";

  Params params;
  params.hs = 2.0;   // degrees
  params.ht = 21.0;  // days
  params.decomp = {8, 8, 8};

  // Memory-aware strategy choice: pretend the workstation has 4x the grid.
  const std::uint64_t saved = util::MemoryBudget::instance().limit();
  util::MemoryBudget::instance().set_limit(
      std::min<std::uint64_t>(saved, grid_bytes * 4));
  std::cout << "workstation memory budget: "
            << util::format_bytes(util::MemoryBudget::instance().limit())
            << "\n\n";

  util::Table t({"strategy", "status", "time (s)", "init (s)", "compute (s)"});
  for (const Algorithm a : {Algorithm::kPBSym, Algorithm::kPBSymDR,
                            Algorithm::kPBSymDD, Algorithm::kPBSymPDSched}) {
    try {
      const Result r = estimate(birds, world, params, a);
      t.row()
          .cell(to_string(a))
          .cell("ok")
          .cell(r.total_seconds(), 3)
          .cell(r.phases.seconds(phase::kInit), 3)
          .cell(r.phases.seconds(phase::kCompute), 3);
    } catch (const util::MemoryBudgetExceeded& e) {
      t.row()
          .cell(to_string(a))
          .cell("OOM: " + std::string(e.what()))
          .cell("-")
          .cell("-")
          .cell("-");
    }
  }
  t.print(std::cout);
  util::MemoryBudget::instance().set_limit(saved);

  std::cout << "\nNote how init dominates every successful run: this is the "
               "paper's Fig. 7 Flu regime,\nwhere extra threads cannot help "
               "much and replicating the domain (DR) is fatal.\n";

  // A lightweight product: monthly case-density time series at the hottest
  // cell, the kind of artifact surveillance dashboards consume.
  Params seq = params;
  const Result r = estimate(birds, world, seq, Algorithm::kPBSym);
  const io::Field2D agg = io::time_aggregate(r.grid);
  std::int32_t hx = 0, hy = 0;
  float best = -1.0f;
  for (std::int32_t x = 0; x < agg.nx; ++x)
    for (std::int32_t y = 0; y < agg.ny; ++y)
      if (agg.at(x, y) > best) {
        best = agg.at(x, y);
        hx = x;
        hy = y;
      }
  std::cout << "\nhottest cell over all years: voxel (" << hx << "," << hy
            << "), aggregate density " << best << "\n";
  return 0;
}
