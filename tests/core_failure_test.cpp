// Failure injection: the paper's OOM cases (PB-SYM-DR on Flu Hr, PB-SYM-PD-REP
// at small decompositions) must surface as typed exceptions before any large
// allocation, and invalid inputs must be rejected loudly.

#include <gtest/gtest.h>

#include <limits>

#include "core/adaptive.hpp"
#include "helpers.hpp"

namespace stkde {
namespace {

using testing::ScopedMemoryBudget;
using testing::TinyInstance;
using testing::make_tiny;

TEST(FailureInjection, DrThrowsWhenReplicasExceedBudget) {
  TinyInstance t = make_tiny(50, 2, 1);
  t.params.threads = 8;
  // Grid is 24*20*16*4B = 30 KiB; 9 copies need ~276 KiB. Budget: 100 KiB.
  ScopedMemoryBudget guard(100 * 1024);
  EXPECT_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSymDR),
               util::MemoryBudgetExceeded);
}

TEST(FailureInjection, DrSucceedsWithFewerThreadsUnderSameBudget) {
  // The paper's Fig. 8: Flu Hr completes at low thread counts and OOMs at
  // 8/16 threads. Same budget, fewer replicas -> fits.
  TinyInstance t = make_tiny(50, 2, 1);
  ScopedMemoryBudget guard(100 * 1024);
  t.params.threads = 2;
  EXPECT_NO_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSymDR));
  t.params.threads = 8;
  EXPECT_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSymDR),
               util::MemoryBudgetExceeded);
}

TEST(FailureInjection, SequentialAlgorithmsUnaffectedByReplicaBudget) {
  TinyInstance t = make_tiny(50, 2, 1);
  ScopedMemoryBudget guard(100 * 1024);
  EXPECT_NO_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSym));
}

TEST(FailureInjection, RepOomsAtCoarseDecompositionWithHotSpot) {
  // 1x1x1 decomposition: the single subdomain's halo is the whole grid, so
  // replication degenerates to DR and the buffers blow the budget
  // (paper Fig. 14: "Flu Hr-Lb and Flu Hr-Hb run out of memory for small
  // decomposition").
  TinyInstance t = make_tiny(1, 2, 1);
  t.points = data::generate_degenerate(t.domain, 5000);
  t.params.decomp = {1, 1, 1};
  t.params.threads = 8;
  // Grid is 30 KiB; at 1x1x1 every replica buffer is another whole grid.
  ScopedMemoryBudget guard(120 * 1024);
  EXPECT_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDRep),
               util::MemoryBudgetExceeded);
}

TEST(FailureInjection, RepFitsAtFinerDecompositionUnderSameBudget) {
  TinyInstance t = make_tiny(1, 2, 1);
  t.points = data::generate_degenerate(t.domain, 5000);
  t.params.threads = 8;
  ScopedMemoryBudget guard(120 * 1024);
  t.params.decomp = {4, 4, 4};  // halo buffers are small slices now
  EXPECT_NO_THROW(
      estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDRep));
}

TEST(FailureInjection, GridAllocationItselfRespectsBudget) {
  TinyInstance t = make_tiny(10, 2, 1);
  ScopedMemoryBudget guard(1024);  // smaller than the grid
  EXPECT_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPB),
               util::MemoryBudgetExceeded);
}

TEST(InvalidInput, NonPositiveBandwidthsRejected) {
  TinyInstance t = make_tiny(10, 2, 1);
  t.params.hs = 0.0;
  EXPECT_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSym),
               std::invalid_argument);
  t.params.hs = 2.0;
  t.params.ht = -1.0;
  EXPECT_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSym),
               std::invalid_argument);
}

TEST(InvalidInput, OverflowingBandwidthsRejected) {
  // A bandwidth of more than INT32_MAX voxels used to wrap to Hs = 1 (a
  // kernel truncated to one voxel), and +inf validated into an all-zero
  // grid; both must throw, per-point adaptive bandwidths included.
  const DomainSpec dom{0.0, 0.0, 0.0, 20.0, 20.0, 10.0, 1.0, 1.0};
  const PointSet pts = {Point{10.0, 10.0, 5.0}, Point{4.0, 12.0, 3.0}};
  const double inf = std::numeric_limits<double>::infinity();
  for (const Algorithm a : {Algorithm::kVB, Algorithm::kPBSym}) {
    Params p;
    p.hs = 3e9;
    EXPECT_THROW(estimate(pts, dom, p, a), std::invalid_argument);
    p.hs = inf;
    EXPECT_THROW(estimate(pts, dom, p, a), std::invalid_argument);
    p.hs = 2.0;
    p.ht = inf;
    EXPECT_THROW(estimate(pts, dom, p, a), std::invalid_argument);
    core::AdaptiveParams ap;
    ap.hs = {2.0, 3e9};
    ap.ht = 2.0;
    EXPECT_THROW(core::run_adaptive(pts, dom, ap, a), std::invalid_argument);
  }
}

TEST(InvalidInput, BadDecompositionRejected) {
  TinyInstance t = make_tiny(10, 2, 1);
  t.params.decomp = {0, 1, 1};
  EXPECT_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSymDD),
               std::invalid_argument);
}

TEST(InvalidInput, NonFiniteDomainRejected) {
  TinyInstance t = make_tiny(10, 2, 1);
  t.domain.gx = std::numeric_limits<double>::infinity();
  EXPECT_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSym),
               std::invalid_argument);
}

TEST(FailureRecovery, OomLeavesBudgetReusable) {
  TinyInstance t = make_tiny(20, 2, 1);
  {
    ScopedMemoryBudget guard(100 * 1024);
    t.params.threads = 8;
    EXPECT_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSymDR),
                 util::MemoryBudgetExceeded);
    // Within the same budget, a feasible strategy still works afterwards.
    EXPECT_NO_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSym));
  }
  // And outside the guard everything is back to normal.
  EXPECT_NO_THROW(estimate(t.points, t.domain, t.params, Algorithm::kPBSymDR));
}

}  // namespace
}  // namespace stkde
