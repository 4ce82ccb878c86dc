#include "core/weighted.hpp"

#include <gtest/gtest.h>

#include "core/estimator.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace stkde::core {
namespace {

using stkde::testing::grid_tolerance;
using stkde::testing::make_tiny;

std::string algorithm_name(const ::testing::TestParamInfo<Algorithm>& info) {
  std::string s = to_string(info.param);
  for (auto& c : s)
    if (c == '-') c = '_';
  return s;
}

std::vector<Algorithm> all_but_vb() {
  std::vector<Algorithm> out;
  for (const Algorithm a : all_algorithms())
    if (a != Algorithm::kVB) out.push_back(a);
  return out;
}

TEST(Weighted, UnitWeightsMatchUnweighted) {
  const auto t = make_tiny(120, 3, 2);
  const std::vector<double> ones(t.points.size(), 1.0);
  const Result w =
      run_weighted(t.points, ones, t.domain, t.params, Algorithm::kPBSym);
  const Result plain = estimate(t.points, t.domain, t.params,
                                Algorithm::kPBSym);
  EXPECT_LE(w.grid.max_abs_diff(plain.grid), grid_tolerance(plain.grid));
}

TEST(Weighted, IntegerWeightsMatchDuplicatedPoints) {
  // Every algorithm: weights w_i equal w_i copies of the event, run through
  // the same algorithm.
  const auto t = make_tiny(60, 3, 2);
  util::Xoshiro256 rng(5);
  std::vector<double> w(t.points.size());
  PointSet duplicated;
  for (std::size_t i = 0; i < t.points.size(); ++i) {
    const auto reps = 1 + rng.below(4);
    w[i] = static_cast<double>(reps);
    for (std::uint64_t r = 0; r < reps; ++r) duplicated.push_back(t.points[i]);
  }
  for (const Algorithm a : all_algorithms()) {
    const Result weighted = run_weighted(t.points, w, t.domain, t.params, a);
    const Result dup = estimate(duplicated, t.domain, t.params, a);
    EXPECT_EQ(weighted.diag.algorithm, to_string(a));
    EXPECT_LE(weighted.grid.max_abs_diff(dup.grid),
              3.0 * grid_tolerance(dup.grid))
        << to_string(a);
  }
}

class WeightedAlgorithm : public ::testing::TestWithParam<Algorithm> {};

TEST_P(WeightedAlgorithm, MatchesReference) {
  // Weights in [0, 3) with every fourth one zero, against VB.
  const auto t = make_tiny(120, 3, 2);
  util::Xoshiro256 rng(11);
  std::vector<double> w(t.points.size());
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = i % 4 == 0 ? 0.0 : rng.uniform(0.0, 3.0);
  Params p = t.params;
  for (const auto d : {DecompRequest{2, 2, 2}, DecompRequest{4, 3, 2}}) {
    p.decomp = d;
    const Result ref = run_weighted(t.points, w, t.domain, p, Algorithm::kVB);
    const Result r = run_weighted(t.points, w, t.domain, p, GetParam());
    EXPECT_LE(r.grid.max_abs_diff(ref.grid), grid_tolerance(ref.grid))
        << d.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(AllButVB, WeightedAlgorithm,
                         ::testing::ValuesIn(all_but_vb()), algorithm_name);

TEST(Weighted, ZeroWeightPointsContributeNothing) {
  const auto t = make_tiny(50, 3, 2);
  std::vector<double> w(t.points.size(), 1.0);
  // Zero-out half; the result must match estimating only the kept half.
  PointSet kept;
  for (std::size_t i = 0; i < t.points.size(); ++i) {
    if (i % 2 == 0) {
      w[i] = 0.0;
    } else {
      kept.push_back(t.points[i]);
    }
  }
  const Result weighted =
      run_weighted(t.points, w, t.domain, t.params, Algorithm::kPBSym);
  const Result sub = estimate(kept, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_LE(weighted.grid.max_abs_diff(sub.grid), grid_tolerance(sub.grid));
}

TEST(Weighted, AllZeroWeightsGiveZeroGrid) {
  const auto t = make_tiny(30, 2, 1);
  const std::vector<double> zeros(t.points.size(), 0.0);
  for (const Algorithm a : all_algorithms()) {
    const Result r = run_weighted(t.points, zeros, t.domain, t.params, a);
    EXPECT_DOUBLE_EQ(r.grid.sum(), 0.0) << to_string(a);
  }
}

TEST(Weighted, ScaleInvarianceOfWeights) {
  // Multiplying all weights by a constant leaves the density unchanged
  // (W rescales identically).
  const auto t = make_tiny(80, 3, 2);
  util::Xoshiro256 rng(13);
  std::vector<double> w(t.points.size()), w10(t.points.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = rng.uniform(0.1, 2.0);
    w10[i] = 10.0 * w[i];
  }
  const Result a =
      run_weighted(t.points, w, t.domain, t.params, Algorithm::kPBSym);
  const Result b =
      run_weighted(t.points, w10, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_LE(a.grid.max_abs_diff(b.grid), grid_tolerance(a.grid));
}

TEST(Weighted, ValidatesInput) {
  const auto t = make_tiny(20, 2, 1);
  EXPECT_THROW(run_weighted(t.points, std::vector<double>(3, 1.0), t.domain,
                            t.params, Algorithm::kPBSym),
               std::invalid_argument);
  std::vector<double> w(t.points.size(), 1.0);
  w[5] = -0.5;
  EXPECT_THROW(
      run_weighted(t.points, w, t.domain, t.params, Algorithm::kPBSym),
      std::invalid_argument);
  w[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(
      run_weighted(t.points, w, t.domain, t.params, Algorithm::kPBSym),
      std::invalid_argument);
}

}  // namespace
}  // namespace stkde::core
