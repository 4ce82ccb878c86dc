#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"

namespace stkde::core {

// Algorithm 2 (PB): initialize the grid, then scatter each point's cylinder.
// Theta(Gx Gy Gt + n Hs^2 Ht); both kernel factors evaluated per voxel.
Result run_pb(const PointSet& pts, const detail::RunSetup& s, const Params& p) {
  Result res;
  res.diag.algorithm = to_string(Algorithm::kPB);

  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(s.map.dims());
    res.grid.fill(0.0f);
  }

  util::ScopedPhase compute(res.phases, phase::kCompute);
  const Extent3 whole = Extent3::whole(s.map.dims());
  detail::with_kernel(p.kernel, [&](const auto& k) {
    for (std::size_t i = 0; i < pts.size(); ++i)
      detail::scatter_direct(res.grid, whole, s.map, k, pts[i], s.hs_of(i),
                             s.ht, s.Hs_of(i), s.Ht, s.scale_of(i));
  });
  return res;
}

}  // namespace stkde::core
