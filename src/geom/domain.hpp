#pragma once
/// \file domain.hpp
/// The computation domain. Following the paper (Table 1): the real domain has
/// size (gx, gy, gt) in domain units and is discretized at spatial resolution
/// sres and temporal resolution tres into a grid of
///   Gx = ceil(gx / sres), Gy = ceil(gy / sres), Gt = ceil(gt / tres) voxels.

#include <cstdint>

#include "geom/bounding_box.hpp"
#include "geom/point.hpp"

namespace stkde {

/// Grid dimensions in voxels (Gx, Gy, Gt).
struct GridDims {
  std::int32_t gx = 0;
  std::int32_t gy = 0;
  std::int32_t gt = 0;

  [[nodiscard]] std::int64_t voxels() const {
    return static_cast<std::int64_t>(gx) * gy * gt;
  }

  friend bool operator==(const GridDims&, const GridDims&) = default;
};

/// Real-space description of the domain: origin, extents, and resolutions.
/// All algorithm inputs are expressed through a DomainSpec so that the
/// domain→voxel conventions live in exactly one place (VoxelMapper).
struct DomainSpec {
  double x0 = 0.0;   ///< domain origin, x
  double y0 = 0.0;   ///< domain origin, y
  double t0 = 0.0;   ///< domain origin, t
  double gx = 0.0;   ///< spatial extent along x (domain units)
  double gy = 0.0;   ///< spatial extent along y
  double gt = 0.0;   ///< temporal extent
  double sres = 1.0; ///< spatial resolution (voxel edge, domain units)
  double tres = 1.0; ///< temporal resolution

  /// Grid dimensions per the paper's ceil convention.
  [[nodiscard]] GridDims dims() const;

  /// Bandwidths in voxels: Hs = ceil(hs/sres), Ht = ceil(ht/tres), at
  /// least 1. Throws std::invalid_argument beyond INT32_MAX voxels.
  [[nodiscard]] std::int32_t spatial_bandwidth_voxels(double hs) const;
  [[nodiscard]] std::int32_t temporal_bandwidth_voxels(double ht) const;

  /// Domain covering \p box at the given resolutions (origin = box min).
  static DomainSpec covering(const BoundingBox3& box, double sres, double tres);

  /// Validates extents/resolutions; throws std::invalid_argument otherwise.
  void validate() const;

  friend bool operator==(const DomainSpec&, const DomainSpec&) = default;
};

}  // namespace stkde
