#include "model/calibration.hpp"

#include <algorithm>

#include "core/detail/scatter.hpp"
#include "data/generator.hpp"
#include "grid/dense_grid.hpp"
#include "grid/reduction.hpp"
#include "partition/binning.hpp"
#include "sched/thread_pool.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

namespace stkde::model {

namespace {

/// Repeat \p body until ~\p min_seconds elapsed; return throughput
/// (\p units_per_call * calls / elapsed).
template <typename F>
double measure_rate(double units_per_call, double min_seconds, F&& body) {
  // Warm-up once (page faults, caches).
  body();
  util::Timer t;
  int calls = 0;
  do {
    body();
    ++calls;
  } while (t.seconds() < min_seconds);
  return units_per_call * calls / t.seconds();
}

}  // namespace

MachineProfile calibrate(std::uint64_t budget_bytes) {
  MachineProfile m;
  m.memory_bytes = budget_bytes != 0
                       ? budget_bytes
                       : util::MemoryBudget::instance().limit();

  // --- init bandwidth: allocate + first-touch fill a 32 MB grid ----------
  // Allocation happens inside the probe: the algorithms always fill
  // freshly-allocated grids, so page-fault cost is part of the init phase
  // (the paper's §6.3 observation about first-touch page allocation).
  {
    const GridDims dims{256, 256, 128};
    m.init_bytes_per_sec = measure_rate(
        static_cast<double>(dims.voxels()) * sizeof(float), 0.05, [&] {
          DenseGrid3<float> g(dims);
          g.fill(0.0f);
        });
  }

  // --- reduce bandwidth: sum two replicas into a grid --------------------
  {
    DenseGrid3<float> dst(GridDims{128, 128, 128});
    std::vector<DenseGrid3<float>> reps;
    reps.emplace_back(GridDims{128, 128, 128});
    reps.emplace_back(GridDims{128, 128, 128});
    dst.fill(0.0f);
    for (auto& r : reps) r.fill(1.0f);
    sched::ThreadPool pool(1);
    m.reduce_bytes_per_sec = measure_rate(
        static_cast<double>(dst.bytes()) * 2, 0.02,
        [&] { reduce_replicas(dst, reps, pool); });
  }

  // --- PB-SYM scatter throughput (cylinder voxels / s) --------------------
  {
    const DomainSpec dom{0, 0, 0, 64, 64, 64, 1.0, 1.0};
    const VoxelMapper map(dom);
    DenseGrid3<float> g(dom.dims());
    g.fill(0.0f);
    const PointSet pts = data::generate_uniform(dom, 512, 7);
    const kernels::EpanechnikovKernel k;
    const std::int32_t Hs = 8, Ht = 4;
    const double per_point = (2.0 * Hs + 1) * (2.0 * Hs + 1) * (2.0 * Ht + 1);
    const Extent3 whole = Extent3::whole(dom.dims());
    kernels::SpatialInvariant ks;
    kernels::TemporalInvariant kt;
    m.kernel_voxels_per_sec = measure_rate(
        per_point * static_cast<double>(pts.size()), 0.03, [&] {
          for (const Point& pt : pts)
            core::detail::scatter_sym(g, whole, map, k, pt, 8.0, 4.0, Hs, Ht,
                                      1e-6, ks, kt);
        });

    // --- invariant table fill rate (entries / s) -------------------------
    const double entries = (2.0 * Hs + 1) * (2.0 * Hs + 1) + (2.0 * Ht + 1);
    m.table_entries_per_sec = measure_rate(
        entries * static_cast<double>(pts.size()), 0.02, [&] {
          for (const Point& pt : pts) {
            ks.compute(k, map, pt, 8.0, Hs, 1e-6);
            kt.compute(k, map, pt, 4.0, Ht);
          }
        });

    // --- binning throughput (points / s) ---------------------------------
    const Decomposition dec =
        Decomposition::uniform(dom.dims(), DecompRequest{8, 8, 8});
    const PointSet many = data::generate_uniform(dom, 100000, 11);
    m.bin_points_per_sec = measure_rate(
        static_cast<double>(many.size()), 0.02,
        [&] { (void)bin_by_owner(many, map, dec); });
  }

  return m;
}

}  // namespace stkde::model
