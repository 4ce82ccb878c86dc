// The keystone correctness suite: every algorithm must produce the same
// density volume as the gold-standard VB (paper Algorithm 1), for every
// kernel, bandwidth, decomposition, and thread count — VB is the paper's
// definition of the estimate and all other algorithms are reorganizations
// of the same arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>

#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "helpers.hpp"

namespace stkde {
namespace {

using testing::TinyInstance;
using testing::grid_tolerance;
using testing::make_tiny;

struct EquivCase {
  Algorithm alg;
  std::string kernel = "epanechnikov";
  std::int32_t Hs = 3;
  std::int32_t Ht = 2;
  DecompRequest decomp{3, 3, 3};
  int threads = 2;

  [[nodiscard]] std::string name() const {
    std::ostringstream os;
    std::string a = to_string(alg);
    for (auto& c : a)
      if (c == '-') c = '_';
    std::string k = kernel;
    for (auto& c : k)
      if (c == '-') c = '_';
    os << a << "_" << k << "_Hs" << Hs << "_Ht" << Ht << "_d" << decomp.a
       << "x" << decomp.b << "x" << decomp.c << "_t" << threads;
    return os.str();
  }
};

// VB reference grids are cached per (kernel, Hs, Ht) — VB is slow by design.
const DensityGrid& reference_grid(const std::string& kernel, std::int32_t Hs,
                                  std::int32_t Ht) {
  static std::map<std::string, Result> cache;
  std::ostringstream key;
  key << kernel << "/" << Hs << "/" << Ht;
  auto it = cache.find(key.str());
  if (it == cache.end()) {
    TinyInstance t = make_tiny(150, Hs, Ht);
    t.params.kernel = kernels::kernel_by_name(kernel);
    it = cache
             .emplace(key.str(),
                      estimate(t.points, t.domain, t.params, Algorithm::kVB))
             .first;
  }
  return it->second.grid;
}

class EquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(EquivalenceTest, MatchesVoxelBasedReference) {
  const EquivCase& c = GetParam();
  TinyInstance t = make_tiny(150, c.Hs, c.Ht);
  t.params.kernel = kernels::kernel_by_name(c.kernel);
  t.params.decomp = c.decomp;
  t.params.threads = c.threads;
  const Result r = estimate(t.points, t.domain, t.params, c.alg);
  const DensityGrid& ref = reference_grid(c.kernel, c.Hs, c.Ht);
  EXPECT_LE(r.grid.max_abs_diff(ref), grid_tolerance(ref))
      << to_string(c.alg) << " diverges from VB";
}

std::string case_name(const ::testing::TestParamInfo<EquivCase>& info) {
  return info.param.name();
}

// --- sequential algorithms x kernels x bandwidths ---------------------------

std::vector<EquivCase> sequential_cases() {
  std::vector<EquivCase> cases;
  const std::vector<Algorithm> algs = {Algorithm::kVBDec, Algorithm::kPB,
                                       Algorithm::kPBDisk, Algorithm::kPBBar,
                                       Algorithm::kPBSym};
  const std::vector<std::string> kernels = {"epanechnikov", "as-printed",
                                            "quartic"};
  const std::vector<std::pair<std::int32_t, std::int32_t>> bws = {{1, 1},
                                                                  {3, 2},
                                                                  {6, 4}};
  for (const auto alg : algs)
    for (const auto& k : kernels)
      for (const auto& [hs, ht] : bws) {
        EquivCase c;
        c.alg = alg;
        c.kernel = k;
        c.Hs = hs;
        c.Ht = ht;
        cases.push_back(c);
      }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sequential, EquivalenceTest,
                         ::testing::ValuesIn(sequential_cases()), case_name);

// --- parallel algorithms x decompositions x threads -------------------------

std::vector<EquivCase> parallel_cases() {
  std::vector<EquivCase> cases;
  const std::vector<Algorithm> algs = {
      Algorithm::kPBSymDR,      Algorithm::kPBSymDD,
      Algorithm::kPBSymPD,      Algorithm::kPBSymPDSched,
      Algorithm::kPBSymPDRep,   Algorithm::kPBSymPDSchedRep};
  const std::vector<DecompRequest> decomps = {
      {1, 1, 1}, {2, 2, 2}, {3, 2, 4}, {5, 5, 5}};
  for (const auto alg : algs)
    for (const auto& d : decomps)
      for (const int threads : {1, 3}) {
        EquivCase c;
        c.alg = alg;
        c.decomp = d;
        c.threads = threads;
        cases.push_back(c);
      }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Parallel, EquivalenceTest,
                         ::testing::ValuesIn(parallel_cases()), case_name);

// --- parallel algorithms with non-default kernels ---------------------------

std::vector<EquivCase> parallel_kernel_cases() {
  std::vector<EquivCase> cases;
  for (const auto alg : {Algorithm::kPBSymDD, Algorithm::kPBSymPDSched,
                         Algorithm::kPBSymPDSchedRep})
    for (const std::string& k :
         {std::string("uniform"), std::string("gaussian-truncated"),
          std::string("triangular")}) {
      EquivCase c;
      c.alg = alg;
      c.kernel = k;
      c.Hs = 4;
      c.Ht = 2;
      cases.push_back(c);
    }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ParallelKernels, EquivalenceTest,
                         ::testing::ValuesIn(parallel_kernel_cases()),
                         case_name);

// --- SIMD scatter core vs retained scalar reference -------------------------
//
// The float/span/omp-simd scatter core must reproduce the pre-SIMD scalar
// double-precision loop (scatter_sym_ref) within 1e-5 relative error, for
// every PB variant, every kernel, and clipped subdomain extents (the
// PB-SYM-DD accumulation path).

DensityGrid scalar_reference_grid(const TinyInstance& t) {
  const core::detail::RunSetup s(t.points, t.domain, t.params);
  DensityGrid g;
  g.allocate(s.map.dims());
  g.fill(0.0f);
  const Extent3 whole = Extent3::whole(s.map.dims());
  core::detail::with_kernel(t.params.kernel, [&](const auto& k) {
    kernels::SpatialInvariantRef ks;
    kernels::TemporalInvariantRef kt;
    for (const Point& pt : t.points)
      core::detail::scatter_sym_ref(g, whole, s.map, k, pt, t.params.hs,
                                    t.params.ht, s.Hs, s.Ht, s.scale, ks, kt);
  });
  return g;
}

double scatter_core_tolerance(const DensityGrid& ref) {
  return 1e-5 * static_cast<double>(std::max(ref.max_value(), 0.0f)) + 1e-12;
}

class ScatterCoreRefTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScatterCoreRefTest, AllPBVariantsMatchScalarReference) {
  for (const auto& [Hs, Ht] :
       std::vector<std::pair<std::int32_t, std::int32_t>>{{1, 1}, {3, 2},
                                                          {5, 3}}) {
    TinyInstance t = make_tiny(150, Hs, Ht);
    t.params.kernel = kernels::kernel_by_name(GetParam());
    const DensityGrid ref = scalar_reference_grid(t);
    const double tol = scatter_core_tolerance(ref);
    for (const Algorithm alg : {Algorithm::kPB, Algorithm::kPBDisk,
                                Algorithm::kPBBar, Algorithm::kPBSym}) {
      const Result r = estimate(t.points, t.domain, t.params, alg);
      EXPECT_LE(r.grid.max_abs_diff(ref), tol)
          << to_string(alg) << " diverges from scatter_sym_ref at Hs=" << Hs
          << " Ht=" << Ht;
    }
  }
}

TEST_P(ScatterCoreRefTest, ClippedSubdomainAccumulationMatchesScalarReference) {
  // The PB-SYM-DD path (src/core/dd.cpp): invariant tables rebuilt per
  // (point, subdomain) pair, accumulation clipped to subdomain extents.
  TinyInstance t = make_tiny(150, 4, 2);
  t.params.kernel = kernels::kernel_by_name(GetParam());
  const DensityGrid ref = scalar_reference_grid(t);
  const double tol = scatter_core_tolerance(ref);
  for (const DecompRequest dec :
       {DecompRequest{2, 2, 2}, DecompRequest{3, 2, 4}}) {
    t.params.decomp = dec;
    t.params.threads = 3;
    const Result r = estimate(t.points, t.domain, t.params,
                              Algorithm::kPBSymDD);
    EXPECT_LE(r.grid.max_abs_diff(ref), tol)
        << "PB-SYM-DD diverges from scatter_sym_ref at decomp " << dec.a << "x"
        << dec.b << "x" << dec.c;
  }
}

TEST_P(ScatterCoreRefTest, SpanStatisticsAreReportedAndConsistent) {
  TinyInstance t = make_tiny(80, 4, 2);
  t.params.kernel = kernels::kernel_by_name(GetParam());
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBSym);
  // Every point lands inside the tiny domain, so tables were filled.
  EXPECT_GT(r.diag.table_cells, 0);
  EXPECT_GE(r.diag.table_cells, r.diag.span_cells);
  EXPECT_GE(r.diag.span_cells, r.diag.table_nonzero);
  EXPECT_GT(r.diag.table_nonzero, 0);
  // The span layout must skip a meaningful corner fraction for Hs >= 4
  // (full square minus disk is ~21% as Hs grows).
  EXPECT_GT(r.diag.skipped_lane_fraction(), 0.05);
  EXPECT_GE(r.diag.wasted_lane_fraction(), 0.0);
  EXPECT_LT(r.diag.wasted_lane_fraction(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, ScatterCoreRefTest,
    ::testing::Values("epanechnikov", "as-printed", "uniform", "triangular",
                      "quartic", "gaussian-truncated"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string s = info.param;
      for (auto& c : s)
        if (c == '-') c = '_';
      return s;
    });

// --- the shared float stamp vs a plain loop, bit for bit ---------------------
//
// scatter_tables gives every column of a run up to 32 long floor(len/4)
// 4-lane updates from a register-held temporal row plus exact 2-lane and
// 1-lane tails; longer runs take a vectorized loop. Either must do exactly
// what the plain loop does: the same float multiply and add in every run
// cell, and nothing outside the run. Every T-window of one 41-voxel
// cylinder covers run lengths 1..41 clipped at the low end, the high end
// and both; the spatial clips cut the disk's Y-spans (and X); the grids sit
// at an offset origin, packed and cache-line padded. Every cell starts as
// -0.0f, and adding anything to it — even the zero lane of a vector that
// overhangs the run — leaves +0.0f or more, so a dropped or doubled lane,
// or a write past the run or into row padding, changes the grids' bits.
// (The windows from the cylinder's first T grow one voxel at a time, so
// the cells past each run length are still -0.0f when it first lands.)

void plain_stamp(DensityGrid& g, const Extent3& e,
                 const kernels::SpatialInvariant& ks,
                 const kernels::TemporalInvariant& kt) {
  for (std::int32_t X = e.xlo; X < e.xhi; ++X)
    for (std::int32_t Y = std::max(e.ylo, ks.y_span_lo(X));
         Y < std::min(e.yhi, ks.y_span_hi(X)); ++Y) {
      float* const row = g.row(X, Y) + (e.tlo - g.extent().tlo);
      const float s = ks.at(X, Y);
      for (std::int32_t i = 0; i < e.nt(); ++i) row[i] += s * kt.at(e.tlo + i);
    }
}

TEST(ScatterTables, MatchesPlainLoopBitForBitForEveryRunLength) {
  DomainSpec dom;
  dom.gx = 12.0;
  dom.gy = 12.0;
  dom.gt = 48.0;
  const VoxelMapper map(dom);
  const Point p{5.3, 6.8, 23.4};
  const std::int32_t Hs = 3, Ht = 20;
  const kernels::EpanechnikovKernel k;
  kernels::SpatialInvariant ks;
  kernels::TemporalInvariant kt;
  ks.compute(k, map, p, 3.0, Hs, 0.37);
  // ht a little over Ht voxels: every lane of the cylinder's temporal row
  // is nonzero, so a dropped lane shows wherever it falls.
  kt.compute(k, map, p, 20.4, Ht);
  const Voxel c = map.voxel_of(p);
  const Extent3 cyl = Extent3::cylinder(c, Hs, Ht);
  for (std::int32_t T = cyl.tlo; T < cyl.thi; ++T) ASSERT_GT(kt.at(T), 0.0f);

  // Spatial clips: none, Y cut through the disk, X and Y cut.
  const std::vector<Extent3> clips = {
      cyl, Extent3{cyl.xlo, cyl.xhi, c.y - 1, c.y + 2, cyl.tlo, cyl.thi},
      Extent3{c.x, cyl.xhi, cyl.ylo, c.y + 1, cyl.tlo, cyl.thi}};
  const Extent3 box{1, 11, 2, 12, 2, 46};  // a subdomain-style grid extent
  std::int32_t longest = 0;
  for (const RowPad pad : {RowPad::kNone, RowPad::kCacheLine}) {
    DensityGrid plain, stamped;
    plain.allocate(box, pad);
    stamped.allocate(box, pad);
    std::fill_n(plain.data(), plain.size(), -0.0f);
    std::fill_n(stamped.data(), stamped.size(), -0.0f);
    const auto bytes = static_cast<std::size_t>(plain.size()) * sizeof(float);
    for (const Extent3& clip : clips)
      for (std::int32_t lo = cyl.tlo; lo < cyl.thi; ++lo)
        for (std::int32_t hi = lo + 1; hi <= cyl.thi; ++hi) {
          Extent3 e = clip;
          e.tlo = lo;
          e.thi = hi;
          plain_stamp(plain, e, ks, kt);
          core::detail::scatter_tables(stamped, e, ks, kt);
          longest = std::max(longest, e.nt());
          ASSERT_EQ(std::memcmp(plain.data(), stamped.data(), bytes), 0)
              << "run length " << e.nt() << " (T " << lo << ".." << hi
              << ", X " << e.xlo << ".." << e.xhi << ", Y " << e.ylo << ".."
              << e.yhi << ", padded " << plain.padded() << ")";
        }
  }
  EXPECT_EQ(longest, 2 * Ht + 1);
}

// --- structural edge cases ---------------------------------------------------

class EdgeCaseTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(EdgeCaseTest, EmptyPointSetGivesZeroGrid) {
  TinyInstance t = make_tiny(0, 2, 1);
  t.points.clear();
  const Result r = estimate(t.points, t.domain, t.params, GetParam());
  EXPECT_DOUBLE_EQ(r.grid.sum(), 0.0);
  EXPECT_EQ(r.grid.dims(), t.domain.dims());
}

TEST_P(EdgeCaseTest, SinglePointMatchesVB) {
  TinyInstance t = make_tiny(1, 4, 3);
  t.points = {Point{12.3, 10.7, 8.2}};
  const Result ref = estimate(t.points, t.domain, t.params, Algorithm::kVB);
  const Result r = estimate(t.points, t.domain, t.params, GetParam());
  EXPECT_LE(r.grid.max_abs_diff(ref.grid), grid_tolerance(ref.grid));
}

TEST_P(EdgeCaseTest, DuplicatePointsMatchVB) {
  TinyInstance t = make_tiny(1, 3, 2);
  t.points = PointSet(20, Point{11.0, 9.0, 7.0});  // 20 identical events
  const Result ref = estimate(t.points, t.domain, t.params, Algorithm::kVB);
  const Result r = estimate(t.points, t.domain, t.params, GetParam());
  EXPECT_LE(r.grid.max_abs_diff(ref.grid), grid_tolerance(ref.grid));
}

TEST_P(EdgeCaseTest, PointsOutsideDomainMatchVB) {
  // Events slightly outside the modeled box still radiate density into it;
  // all algorithms must agree (the mapper clamps, the kernels cut off).
  TinyInstance t = make_tiny(1, 4, 3);
  t.points = {Point{-1.5, 10.0, 8.0}, Point{25.0, -2.0, 8.0},
              Point{12.0, 21.0, 17.0}, Point{12.0, 10.0, -0.7},
              Point{100.0, 100.0, 100.0}};  // far outside: contributes nothing
  const Result ref = estimate(t.points, t.domain, t.params, Algorithm::kVB);
  const Result r = estimate(t.points, t.domain, t.params, GetParam());
  EXPECT_LE(r.grid.max_abs_diff(ref.grid), grid_tolerance(ref.grid));
}

TEST_P(EdgeCaseTest, PointsOnDomainBordersMatchVB) {
  TinyInstance t = make_tiny(1, 3, 2);
  t.points = {Point{0.0, 0.0, 0.0}, Point{24.0, 20.0, 16.0},
              Point{0.0, 20.0, 8.0}, Point{24.0, 0.0, 16.0}};
  const Result ref = estimate(t.points, t.domain, t.params, Algorithm::kVB);
  const Result r = estimate(t.points, t.domain, t.params, GetParam());
  EXPECT_LE(r.grid.max_abs_diff(ref.grid), grid_tolerance(ref.grid));
}

TEST_P(EdgeCaseTest, BandwidthLargerThanDomainMatchesVB) {
  TinyInstance t = make_tiny(30, 1, 1);
  t.params.hs = 40.0;  // cylinder covers the whole grid
  t.params.ht = 20.0;
  const Result ref = estimate(t.points, t.domain, t.params, Algorithm::kVB);
  const Result r = estimate(t.points, t.domain, t.params, GetParam());
  EXPECT_LE(r.grid.max_abs_diff(ref.grid), grid_tolerance(ref.grid));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, EdgeCaseTest, ::testing::ValuesIn(all_algorithms()),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      std::string s = to_string(info.param);
      for (auto& c : s)
        if (c == '-') c = '_';
      return s;
    });

}  // namespace
}  // namespace stkde
