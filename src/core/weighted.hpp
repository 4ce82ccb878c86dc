#pragma once
/// \file weighted.hpp
/// Weighted STKDE. Real surveillance extracts are usually aggregated — one
/// record per (location, day) with a case count — and masking (the paper's
/// Dengue data is masked to street intersections [KCS04]) stacks events on
/// shared coordinates. Weighted estimation processes each distinct record
/// once with weight w_i instead of scattering w_i duplicate points:
///   f(x,y,t) = 1/(W hs^2 ht) * sum_i w_i ks(...) kt(...),  W = sum_i w_i.
/// Identical to duplicating each event w_i times, at 1/w_i the cost.
///
/// It is the paper's estimate with a per-point scale c_i = w_i/(W hs^2 ht)
/// (core::detail::RunSetup), so every Algorithm runs it through the same
/// strategy code, table cache and stamp as the unweighted estimate.

#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "geom/domain.hpp"
#include "geom/point.hpp"

namespace stkde::core {

/// Run weighted STKDE with \p algorithm. \p weights must be non-negative,
/// one per point; zero-weight events are dropped before the strategy runs.
/// Throws std::invalid_argument on size mismatch or negative/non-finite
/// weights, and produces an all-zero grid when W == 0.
[[nodiscard]] Result run_weighted(const PointSet& points,
                                  const std::vector<double>& weights,
                                  const DomainSpec& dom, const Params& params,
                                  Algorithm algorithm);

}  // namespace stkde::core
