#include "core/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/algorithms.hpp"

namespace stkde::core {

void AdaptiveParams::validate(std::size_t n_points) const {
  if (hs.size() != n_points)
    throw std::invalid_argument(
        "AdaptiveParams: one bandwidth per point required");
  for (const double h : hs)
    if (!(h > 0.0) || !std::isfinite(h))
      throw std::invalid_argument("AdaptiveParams: bandwidths must be > 0");
  if (!(ht > 0.0) || !std::isfinite(ht))
    throw std::invalid_argument("AdaptiveParams: ht must be finite and > 0");
  if (threads < 0)
    throw std::invalid_argument("AdaptiveParams: threads must be >= 0");
}

Result run_adaptive(const PointSet& points, const DomainSpec& dom,
                    const AdaptiveParams& params, Algorithm algorithm) {
  dom.validate();
  params.validate(points.size());
  Params p;
  if (!params.hs.empty())
    p.hs = *std::max_element(params.hs.begin(), params.hs.end());
  p.ht = params.ht;
  p.kernel = params.kernel;
  p.threads = params.threads;
  p.decomp = params.decomp;
  p.tile.threads = 0;  // PB-TILE inherits threads
  // c_i = 1/(n h_i^2 ht): the run scale 1/(n ht) times the factor 1/h_i^2.
  std::vector<double> factors;
  factors.reserve(params.hs.size());
  for (const double h : params.hs) factors.push_back(1.0 / (h * h));
  const double n = std::max<double>(1.0, static_cast<double>(points.size()));
  return run(algorithm, points,
             detail::RunSetup(dom, p, 1.0 / (n * p.ht), params.hs,
                              std::move(factors)),
             p);
}

}  // namespace stkde::core
