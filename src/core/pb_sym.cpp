#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"

namespace stkde::core {

// Algorithm 3 (PB-SYM): both invariants are hoisted, so each voxel of the
// cylinder costs one multiply-add — the paper's best sequential algorithm
// (up to 6.97x over PB on PollenUS Hr-Hb, Table 3).
Result run_pb_sym(const PointSet& pts, const detail::RunSetup& s,
                  const Params& p) {
  Result res;
  res.diag.algorithm = to_string(Algorithm::kPBSym);

  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(s.map.dims());
    res.grid.fill(0.0f);
  }

  util::ScopedPhase compute(res.phases, phase::kCompute);
  const Extent3 whole = Extent3::whole(s.map.dims());
  detail::with_kernel(p.kernel, [&](const auto& k) {
    kernels::SpatialInvariant ks;
    kernels::TemporalInvariant kt;
    for (std::size_t i = 0; i < pts.size(); ++i)
      if (detail::scatter_sym(res.grid, whole, s.map, k, pts[i], s.hs_of(i),
                              s.ht, s.Hs_of(i), s.Ht, s.scale_of(i), ks, kt)) {
        res.diag.table_cells += ks.cells();
        res.diag.span_cells += ks.span_cells();
        res.diag.table_nonzero += ks.nonzero();
      }
  });
  return res;
}

}  // namespace stkde::core
