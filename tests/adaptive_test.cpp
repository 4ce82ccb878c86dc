#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include "core/estimator.hpp"
#include "data/generator.hpp"
#include "helpers.hpp"
#include "kernels/bandwidth.hpp"

namespace stkde::core {
namespace {

using stkde::testing::grid_tolerance;
using stkde::testing::make_tiny;

AdaptiveParams adaptive_params(const PointSet& pts, int k, double ht) {
  AdaptiveParams p;
  kernels::AdaptiveClamp clamp;
  clamp.min_hs = 1.5;
  clamp.max_hs = 6.0;
  p.hs = kernels::knn_adaptive_bandwidths(pts, k, clamp);
  p.ht = ht;
  p.threads = 2;
  return p;
}

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

class AdaptiveAlgorithm : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AdaptiveAlgorithm, MatchesReference) {
  // kNN bandwidths clamped to [1.5, 6], against VB — on continuous points,
  // and on the same points snapped to half-voxel offsets, where cached
  // tables share offset keys and only the bandwidth key tells them apart.
  const auto t = make_tiny(150, 3, 2);
  for (const PointSet& pts :
       {t.points, data::snap_to_lattice(t.points, t.domain, 2)}) {
    AdaptiveParams p = adaptive_params(pts, 4, 2.0);
    for (const auto d : {DecompRequest{2, 2, 2}, DecompRequest{4, 4, 4}}) {
      p.decomp = d;
      const Result ref = run_adaptive(pts, t.domain, p, Algorithm::kVB);
      const Result r = run_adaptive(pts, t.domain, p, GetParam());
      EXPECT_LE(r.grid.max_abs_diff(ref.grid), grid_tolerance(ref.grid))
          << d.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllButVB, AdaptiveAlgorithm,
                         ::testing::ValuesIn(all_but_vb()), algorithm_name);

TEST(Adaptive, UniformBandwidthsReduceToFixedAlgorithm) {
  // With every h_i equal, adaptive == the fixed-bandwidth estimate, for
  // every algorithm.
  const auto t = make_tiny(100, 3, 2);
  AdaptiveParams p;
  p.hs.assign(t.points.size(), 3.0);
  p.ht = 2.0;
  p.threads = 2;
  Params fixed;
  fixed.hs = 3.0;
  fixed.ht = 2.0;
  fixed.threads = 2;
  fixed.tile.threads = 0;
  for (const Algorithm a : all_algorithms()) {
    const Result adaptive = run_adaptive(t.points, t.domain, p, a);
    const Result classic = estimate(t.points, t.domain, fixed, a);
    EXPECT_LE(adaptive.grid.max_abs_diff(classic.grid),
              grid_tolerance(classic.grid))
        << to_string(a);
  }
}

TEST(Adaptive, MassIsConservedForInteriorPoints) {
  // Each point contributes ~1/n regardless of its own bandwidth.
  const DomainSpec dom{0, 0, 0, 64, 64, 64, 1, 1};
  PointSet pts;
  for (int i = 0; i < 30; ++i)
    pts.push_back(Point{20.0 + i % 6, 20.0 + (i * 7) % 9, 20.0 + (i * 3) % 8});
  AdaptiveParams p;
  kernels::AdaptiveClamp clamp;
  clamp.min_hs = 3.0;
  clamp.max_hs = 10.0;
  p.hs = kernels::knn_adaptive_bandwidths(pts, 3, clamp);
  p.ht = 8.0;
  const Result r =
      run_adaptive(pts, dom, p, Algorithm::kPBSym);
  EXPECT_NEAR(r.grid.sum(), 1.0, 0.06);
}

TEST(Adaptive, HotspotSharperThanFixed) {
  // Adaptive bandwidth sharpens dense clusters: the peak density at a tight
  // hotspot exceeds the fixed-bandwidth peak computed at the mean bandwidth.
  const DomainSpec dom{0, 0, 0, 48, 48, 48, 1, 1};
  PointSet pts;
  for (int i = 0; i < 60; ++i)  // tight cluster
    pts.push_back(Point{24.0 + (i % 5) * 0.1, 24.0, 24.0});
  for (int i = 0; i < 20; ++i)  // sparse background
    pts.push_back(Point{4.0 + i * 2.0, 40.0, 10.0});
  AdaptiveParams ap;
  kernels::AdaptiveClamp clamp;
  clamp.min_hs = 1.0;
  clamp.max_hs = 12.0;
  ap.hs = kernels::knn_adaptive_bandwidths(pts, 4, clamp);
  ap.ht = 6.0;
  const Result adaptive = run_adaptive(pts, dom, ap, Algorithm::kPBSym);
  double mean_h = 0.0;
  for (const double h : ap.hs) mean_h += h;
  mean_h /= static_cast<double>(ap.hs.size());
  Params fixed;
  fixed.hs = mean_h;
  fixed.ht = 6.0;
  const Result flat = estimate(pts, dom, fixed, Algorithm::kPBSym);
  EXPECT_GT(adaptive.grid.max_value(), flat.grid.max_value());
}

TEST(Adaptive, ValidatesInput) {
  const auto t = make_tiny(10, 2, 1);
  AdaptiveParams p;
  p.hs.assign(5, 1.0);  // wrong size
  p.ht = 1.0;
  EXPECT_THROW(
      run_adaptive(t.points, t.domain, p, Algorithm::kPBSym),
      std::invalid_argument);
  p.hs.assign(t.points.size(), 1.0);
  p.hs[3] = -2.0;
  EXPECT_THROW(
      run_adaptive(t.points, t.domain, p, Algorithm::kPBSym),
      std::invalid_argument);
  p.hs[3] = 1.0;
  p.ht = 0.0;
  EXPECT_THROW(
      run_adaptive(t.points, t.domain, p, Algorithm::kPBSym),
      std::invalid_argument);
}

TEST(Adaptive, EmptyPointSet) {
  const auto t = make_tiny(10, 2, 1);
  AdaptiveParams p;
  p.ht = 1.0;
  const Result r =
      run_adaptive(PointSet{}, t.domain, p, Algorithm::kPBSym);
  EXPECT_DOUBLE_EQ(r.grid.sum(), 0.0);
}

TEST(Adaptive, DiagnosticsFilled) {
  const auto t = make_tiny(80, 2, 1);
  AdaptiveParams p = adaptive_params(t.points, 3, 2.0);
  p.decomp = {3, 3, 3};
  const Result r =
      run_adaptive(t.points, t.domain, p, Algorithm::kPBSymPDSched);
  EXPECT_EQ(r.diag.algorithm, "PB-SYM-PD-SCHED");
  EXPECT_GT(r.diag.subdomains, 0);
  EXPECT_GE(r.diag.num_colors, 1);
  EXPECT_GT(r.phases.seconds(phase::kCompute), 0.0);
}

}  // namespace
}  // namespace stkde::core
