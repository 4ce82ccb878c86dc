#include "geom/domain.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace stkde {

namespace {
std::int32_t ceil_div_positive(double extent, double res) {
  const auto v = static_cast<std::int32_t>(std::ceil(extent / res));
  return v > 0 ? v : 1;  // degenerate (zero-extent) domains get one voxel
}

/// ceil(h / res) voxels, at least one. A count beyond INT32_MAX (or NaN)
/// throws: the cast would wrap it to a tiny kernel.
std::int32_t bandwidth_voxels(double h, double res) {
  const double v = std::ceil(h / res);
  if (!(v <= static_cast<double>(std::numeric_limits<std::int32_t>::max())))
    throw std::invalid_argument(
        "DomainSpec: bandwidth must be finite and at most INT32_MAX voxels");
  return v > 0.0 ? static_cast<std::int32_t>(v) : 1;
}
}  // namespace

GridDims DomainSpec::dims() const {
  return GridDims{ceil_div_positive(gx, sres), ceil_div_positive(gy, sres),
                  ceil_div_positive(gt, tres)};
}

std::int32_t DomainSpec::spatial_bandwidth_voxels(double hs) const {
  return bandwidth_voxels(hs, sres);
}

std::int32_t DomainSpec::temporal_bandwidth_voxels(double ht) const {
  return bandwidth_voxels(ht, tres);
}

DomainSpec DomainSpec::covering(const BoundingBox3& box, double sres,
                                double tres) {
  if (box.empty()) throw std::invalid_argument("DomainSpec::covering: empty box");
  DomainSpec d;
  d.x0 = box.xmin;
  d.y0 = box.ymin;
  d.t0 = box.tmin;
  d.gx = box.width();
  d.gy = box.height();
  d.gt = box.duration();
  d.sres = sres;
  d.tres = tres;
  d.validate();
  return d;
}

void DomainSpec::validate() const {
  if (!(sres > 0.0) || !(tres > 0.0))
    throw std::invalid_argument("DomainSpec: resolutions must be positive");
  if (gx < 0.0 || gy < 0.0 || gt < 0.0)
    throw std::invalid_argument("DomainSpec: extents must be non-negative");
  if (!std::isfinite(gx) || !std::isfinite(gy) || !std::isfinite(gt) ||
      !std::isfinite(x0) || !std::isfinite(y0) || !std::isfinite(t0))
    throw std::invalid_argument("DomainSpec: non-finite domain");
}

}  // namespace stkde
