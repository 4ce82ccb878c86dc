#pragma once
/// \file common.hpp
/// Shared setup for the algorithm implementations: normalization, bandwidth
/// conversion, and the per-run kernel dispatch.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <variant>
#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "geom/voxel_mapper.hpp"

namespace stkde::core::detail {

/// The estimate every algorithm computes, f = sum_i c_i K_{h_i}: point i has a
/// spatial bandwidth h_i (Hs_i voxels) and a scale c_i = scale * f_i, a
/// run-wide scale times an optional per-point factor. Fixed-bandwidth runs
/// hold no per-point arrays (h_i = hs, c_i = scale = 1/(n hs^2 ht)); weighted
/// runs hold factors (the event weights), adaptive runs bandwidths and
/// factors. The widest Hs sizes everything that must cover every cylinder
/// (decompositions, intersection bins, tiles, halos, cache slots); every
/// stamp uses its own point's (h_i, Hs_i, c_i).
struct RunSetup {
  VoxelMapper map;
  double hs;         ///< widest spatial bandwidth (domain units)
  double ht;         ///< temporal bandwidth (domain units)
  std::int32_t Hs;   ///< widest spatial bandwidth in voxels
  std::int32_t Ht;   ///< temporal bandwidth in voxels
  double scale;      ///< run-wide scale

  /// Run scale \p run_scale; per point, the bandwidths \p point_hs and
  /// factors \p point_factor, one per point each, or empty for p.hs and 1.
  /// Throws std::invalid_argument when a bandwidth exceeds INT32_MAX voxels.
  RunSetup(const DomainSpec& dom, const Params& p, double run_scale,
           std::vector<double> point_hs = {},
           std::vector<double> point_factor = {})
      : map(dom),
        hs(p.hs),
        ht(p.ht),
        Hs(dom.spatial_bandwidth_voxels(p.hs)),
        Ht(dom.temporal_bandwidth_voxels(p.ht)),
        scale(run_scale),
        point_hs_(std::move(point_hs)),
        point_factor_(std::move(point_factor)) {
    point_Hs_.reserve(point_hs_.size());
    for (const double h : point_hs_) {
      point_Hs_.push_back(dom.spatial_bandwidth_voxels(h));
      hs = std::max(hs, h);
      Hs = std::max(Hs, point_Hs_.back());
    }
  }

  /// Fixed bandwidth: scale 1/(n hs^2 ht); 0 when n == 0.
  RunSetup(const PointSet& pts, const DomainSpec& dom, const Params& p)
      : RunSetup(dom, p,
                 pts.empty() ? 0.0
                             : 1.0 / (static_cast<double>(pts.size()) * p.hs *
                                      p.hs * p.ht)) {}

  [[nodiscard]] double hs_of(std::size_t i) const {
    return point_hs_.empty() ? hs : point_hs_[i];
  }
  [[nodiscard]] std::int32_t Hs_of(std::size_t i) const {
    return point_Hs_.empty() ? Hs : point_Hs_[i];
  }
  /// f_i: 1 unless per-point factors are set.
  [[nodiscard]] double factor_of(std::size_t i) const {
    return point_factor_.empty() ? 1.0 : point_factor_[i];
  }
  /// c_i = scale * f_i (exactly scale without per-point factors).
  [[nodiscard]] double scale_of(std::size_t i) const {
    return point_factor_.empty() ? scale : scale * point_factor_[i];
  }

 private:
  std::vector<double> point_hs_;
  std::vector<double> point_factor_;
  std::vector<std::int32_t> point_Hs_;
};

/// Invoke fn(concrete_kernel) for the active kernel alternative; the body of
/// every algorithm is instantiated once per kernel type so inner loops are
/// fully static.
template <typename F>
decltype(auto) with_kernel(const kernels::KernelVariant& k, F&& fn) {
  return std::visit(std::forward<F>(fn), k);
}

}  // namespace stkde::core::detail
