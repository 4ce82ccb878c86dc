#include "core/weighted.hpp"

#include <cmath>
#include <stdexcept>

#include "core/algorithms.hpp"

namespace stkde::core {

Result run_weighted(const PointSet& points, const std::vector<double>& weights,
                    const DomainSpec& dom, const Params& params,
                    Algorithm algorithm) {
  dom.validate();
  params.validate();
  if (weights.size() != points.size())
    throw std::invalid_argument("run_weighted: one weight per point required");
  double wsum = 0.0;
  for (const double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w))
      throw std::invalid_argument(
          "run_weighted: weights must be finite and >= 0");
    wsum += w;
  }
  // Zero-weight events contribute nothing: drop them here, so no strategy
  // stamps or schedules them.
  PointSet kept;
  std::vector<double> factors;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (weights[i] > 0.0) {
      kept.push_back(points[i]);
      factors.push_back(weights[i]);
    }
  const double scale =
      wsum > 0.0 ? 1.0 / (wsum * params.hs * params.hs * params.ht) : 0.0;
  return run(algorithm, kept,
             detail::RunSetup(dom, params, scale, {}, std::move(factors)),
             params);
}

}  // namespace stkde::core
