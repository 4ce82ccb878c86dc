#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "partition/binning.hpp"

namespace stkde::core {

// VB-DEC (§6.2): partition the points into blocks the size of the (widest)
// bandwidth so each voxel only computes distances against points of its
// 3x3x3 block neighborhood — the only points that "have a chance to have an
// impact". Pairs are evaluated like VB's, with each point's h_i and f_i.
Result run_vb_dec(const PointSet& pts, const detail::RunSetup& s,
                  const Params& p) {
  Result res;
  res.diag.algorithm = to_string(Algorithm::kVBDec);

  const GridDims d = s.map.dims();
  const Decomposition blocks =
      Decomposition::by_cell_size(d, s.Hs, s.Hs, s.Ht);
  res.diag.decomposition = blocks.to_string();
  res.diag.subdomains = blocks.count();

  PointBins bins;
  {
    util::ScopedPhase bin(res.phases, phase::kBin);
    bins = bin_by_owner(pts, s.map, blocks);
  }
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(d);
    res.grid.fill(0.0f);
  }

  util::ScopedPhase compute(res.phases, phase::kCompute);
  const double inv_ht = 1.0 / s.ht;
  detail::with_kernel(p.kernel, [&](const auto& k) {
    std::vector<std::uint32_t> candidates;
    for (std::int32_t a = 0; a < blocks.a(); ++a) {
      for (std::int32_t b = 0; b < blocks.b(); ++b) {
        for (std::int32_t c = 0; c < blocks.c(); ++c) {
          // Candidate points: this block and its 26 neighbors.
          candidates.clear();
          for (std::int32_t da = -1; da <= 1; ++da) {
            const std::int32_t na = a + da;
            if (na < 0 || na >= blocks.a()) continue;
            for (std::int32_t db = -1; db <= 1; ++db) {
              const std::int32_t nb = b + db;
              if (nb < 0 || nb >= blocks.b()) continue;
              for (std::int32_t dc = -1; dc <= 1; ++dc) {
                const std::int32_t nc = c + dc;
                if (nc < 0 || nc >= blocks.c()) continue;
                const auto& bin = bins.bins[static_cast<std::size_t>(
                    blocks.flat(na, nb, nc))];
                candidates.insert(candidates.end(), bin.begin(), bin.end());
              }
            }
          }
          const Extent3 e = blocks.subdomain(a, b, c);
          if (candidates.empty()) continue;
          for (std::int32_t X = e.xlo; X < e.xhi; ++X) {
            const double x = s.map.x_of(X);
            for (std::int32_t Y = e.ylo; Y < e.yhi; ++Y) {
              const double y = s.map.y_of(Y);
              float* const row = res.grid.row(X, Y);
              for (std::int32_t T = e.tlo; T < e.thi; ++T) {
                const double t = s.map.t_of(T);
                double sum = 0.0;
                for (const std::uint32_t idx : candidates) {
                  const Point& pt = pts[idx];
                  const double inv_hs = 1.0 / s.hs_of(idx);
                  const double u = (x - pt.x) * inv_hs;
                  const double v = (y - pt.y) * inv_hs;
                  const double ks = k.spatial(u, v);
                  if (ks == 0.0) continue;
                  const double w = (t - pt.t) * inv_ht;
                  sum += ks * k.temporal(w) * s.factor_of(idx);
                }
                row[T] = static_cast<float>(sum * s.scale);
              }
            }
          }
        }
      }
    }
  });
  return res;
}

}  // namespace stkde::core
