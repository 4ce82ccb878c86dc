#include "core/algorithms.hpp"
#include "core/detail/common.hpp"

namespace stkde::core {

// Algorithm 1 (VB): for every voxel, scan all points and accumulate the
// kernel product of those within both bandwidths. The kernels return 0
// outside their support, which subsumes the pseudocode's explicit
// "sqrt(...) < hs and |ti - t| <= ht" test. Per-voxel sums accumulate in
// double and are stored once, like the reference implementation. Each pair
// uses its point's own bandwidth h_i and factor f_i, and the sum takes the
// run scale once (c_i = scale * f_i): VB evaluates the estimate directly,
// independent of the invariant tables and caches it checks.
Result run_vb(const PointSet& pts, const detail::RunSetup& s, const Params& p) {
  Result res;
  res.diag.algorithm = to_string(Algorithm::kVB);

  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(s.map.dims());
    res.grid.fill(0.0f);
  }

  util::ScopedPhase compute(res.phases, phase::kCompute);
  const GridDims d = s.map.dims();
  const double inv_ht = 1.0 / s.ht;
  detail::with_kernel(p.kernel, [&](const auto& k) {
    for (std::int32_t X = 0; X < d.gx; ++X) {
      const double x = s.map.x_of(X);
      for (std::int32_t Y = 0; Y < d.gy; ++Y) {
        const double y = s.map.y_of(Y);
        float* const row = res.grid.row(X, Y);
        for (std::int32_t T = 0; T < d.gt; ++T) {
          const double t = s.map.t_of(T);
          double sum = 0.0;
          for (std::size_t i = 0; i < pts.size(); ++i) {
            const Point& pt = pts[i];
            const double inv_hs = 1.0 / s.hs_of(i);
            const double u = (x - pt.x) * inv_hs;
            const double v = (y - pt.y) * inv_hs;
            const double ks = k.spatial(u, v);
            if (ks == 0.0) continue;
            const double w = (t - pt.t) * inv_ht;
            sum += ks * k.temporal(w) * s.factor_of(i);
          }
          row[T] = static_cast<float>(sum * s.scale);
        }
      }
    }
  });
  return res;
}

}  // namespace stkde::core
