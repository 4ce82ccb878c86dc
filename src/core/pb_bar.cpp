#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"

namespace stkde::core {

// PB-BAR (§3.2): the spatially-invariant temporal table Kt is computed once
// per point and reused across every (X, Y) column of the cylinder.
Result run_pb_bar(const PointSet& pts, const detail::RunSetup& s,
                  const Params& p) {
  Result res;
  res.diag.algorithm = to_string(Algorithm::kPBBar);

  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(s.map.dims());
    res.grid.fill(0.0f);
  }

  util::ScopedPhase compute(res.phases, phase::kCompute);
  const Extent3 whole = Extent3::whole(s.map.dims());
  detail::with_kernel(p.kernel, [&](const auto& k) {
    kernels::TemporalInvariant kt;
    for (std::size_t i = 0; i < pts.size(); ++i)
      detail::scatter_bar(res.grid, whole, s.map, k, pts[i], s.hs_of(i), s.ht,
                          s.Hs_of(i), s.Ht, s.scale_of(i), kt);
  });
  return res;
}

}  // namespace stkde::core
