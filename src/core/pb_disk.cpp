#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"

namespace stkde::core {

// PB-DISK (§3.2): the temporally-invariant spatial table Ks is computed once
// per point and reused across all 2Ht+1 planes of the cylinder.
Result run_pb_disk(const PointSet& pts, const detail::RunSetup& s,
                   const Params& p) {
  Result res;
  res.diag.algorithm = to_string(Algorithm::kPBDisk);

  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(s.map.dims());
    res.grid.fill(0.0f);
  }

  util::ScopedPhase compute(res.phases, phase::kCompute);
  const Extent3 whole = Extent3::whole(s.map.dims());
  detail::with_kernel(p.kernel, [&](const auto& k) {
    kernels::SpatialInvariant ks;
    for (std::size_t i = 0; i < pts.size(); ++i)
      if (detail::scatter_disk(res.grid, whole, s.map, k, pts[i], s.hs_of(i),
                               s.ht, s.Hs_of(i), s.Ht, s.scale_of(i), ks)) {
        res.diag.table_cells += ks.cells();
        res.diag.span_cells += ks.span_cells();
        res.diag.table_nonzero += ks.nonzero();
      }
  });
  return res;
}

}  // namespace stkde::core
