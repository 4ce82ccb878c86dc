#pragma once
/// \file adaptive.hpp
/// Adaptive-bandwidth STKDE — the paper's §8 future work ("how these
/// methods apply to a bandwidth that adapts to the density of population").
///
/// Each event i carries its own spatial bandwidth h_i (typically from
/// kernels::knn_adaptive_bandwidths): dense hotspots get sharp kernels,
/// sparse regions get wide ones. The estimate becomes
///   f(x,y,t) = 1/(n ht) * sum_i 1/h_i^2 ks((x-xi)/h_i,(y-yi)/h_i) kt(...)
///
/// It is the paper's estimate with a per-point bandwidth h_i and scale
/// c_i = 1/(n h_i^2 ht) (core::detail::RunSetup), so every Algorithm runs
/// it through its own strategy: invariant tables are sized by h_i, the table
/// cache keys on h_i as well as the sub-voxel offset, and everything that
/// must cover every cylinder — the PD safety rule (subdomains >= 2 max_i
/// Hs_i wide), DD's intersection bins, PB-TILE's tiles and halos — uses
/// the *maximum* bandwidth.

#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "geom/domain.hpp"
#include "geom/point.hpp"

namespace stkde::core {

struct AdaptiveParams {
  std::vector<double> hs;  ///< per-point spatial bandwidth, size == n
  double ht = 1.0;         ///< temporal bandwidth (fixed)
  kernels::KernelVariant kernel = kernels::EpanechnikovKernel{};
  int threads = 0;
  DecompRequest decomp{8, 8, 8};

  /// Throws std::invalid_argument on size mismatch / bad bandwidths.
  void validate(std::size_t n_points) const;
};

/// Run adaptive-bandwidth STKDE with \p algorithm (PB-TILE walks with
/// \p params.threads workers). Work is Theta(V + sum_i Hs_i^2 Ht). Throws
/// std::invalid_argument on bad params or a bandwidth beyond INT32_MAX
/// voxels.
[[nodiscard]] Result run_adaptive(const PointSet& points,
                                  const DomainSpec& dom,
                                  const AdaptiveParams& params,
                                  Algorithm algorithm);

}  // namespace stkde::core
