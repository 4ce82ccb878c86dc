// Behavioral contracts beyond numerical equality: phase accounting,
// diagnostics, and the strategy-specific structures the paper describes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "helpers.hpp"

namespace stkde {
namespace {

using testing::TinyInstance;
using testing::make_tiny;

TEST(Phases, PointBasedAlgorithmsReportInitAndCompute) {
  TinyInstance t = make_tiny(100, 3, 2);
  for (const Algorithm a : {Algorithm::kPB, Algorithm::kPBSym}) {
    const Result r = estimate(t.points, t.domain, t.params, a);
    EXPECT_GT(r.phases.seconds(phase::kInit), 0.0) << to_string(a);
    EXPECT_GT(r.phases.seconds(phase::kCompute), 0.0) << to_string(a);
    EXPECT_GT(r.total_seconds(), 0.0);
  }
}

TEST(Phases, DrReportsReducePhase) {
  TinyInstance t = make_tiny(100, 3, 2);
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBSymDR);
  EXPECT_GT(r.phases.seconds(phase::kReduce), 0.0);
}

TEST(Phases, DecomposedAlgorithmsReportBinPhase) {
  TinyInstance t = make_tiny(100, 2, 1);
  for (const Algorithm a : {Algorithm::kPBSymDR, Algorithm::kPBSymDD,
                            Algorithm::kPBSymPD, Algorithm::kPBSymPDSched,
                            Algorithm::kPBSymPDRep}) {
    const Result r = estimate(t.points, t.domain, t.params, a);
    EXPECT_GT(r.phases.seconds(phase::kBin), 0.0) << to_string(a);
  }
}

TEST(Diagnostics, AlgorithmNamesArePaperNames) {
  TinyInstance t = make_tiny(20, 2, 1);
  EXPECT_EQ(estimate(t.points, t.domain, t.params, Algorithm::kPBSym)
                .diag.algorithm,
            "PB-SYM");
  EXPECT_EQ(estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDSchedRep)
                .diag.algorithm,
            "PB-SYM-PD-SCHED-REP");
}

TEST(Diagnostics, DdReportsReplicationFactorAtLeastOne) {
  TinyInstance t = make_tiny(100, 3, 2);
  t.params.decomp = {4, 4, 4};
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBSymDD);
  EXPECT_GE(r.diag.replication_factor, 1.0);
  EXPECT_GT(r.diag.subdomains, 1);
  EXPECT_FALSE(r.diag.decomposition.empty());
}

TEST(Diagnostics, DdReplicationGrowsWithDecomposition) {
  TinyInstance t = make_tiny(300, 4, 3);
  t.params.decomp = {2, 2, 2};
  const double r2 = estimate(t.points, t.domain, t.params, Algorithm::kPBSymDD)
                        .diag.replication_factor;
  t.params.decomp = {6, 6, 6};
  const double r6 = estimate(t.points, t.domain, t.params, Algorithm::kPBSymDD)
                        .diag.replication_factor;
  EXPECT_GE(r6, r2);  // finer cuts replicate more (paper Fig. 9)
}

TEST(Diagnostics, PdUsesAtMost8Colors) {
  TinyInstance t = make_tiny(100, 2, 1);
  t.params.decomp = {4, 4, 4};
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBSymPD);
  EXPECT_GE(r.diag.num_colors, 1);
  EXPECT_LE(r.diag.num_colors, 8);
  EXPECT_GE(r.diag.total_work, r.diag.critical_path);
}

TEST(Diagnostics, PdRespectsMinimumSubdomainRule) {
  TinyInstance t = make_tiny(50, 6, 4);  // large bandwidth on a 24x20x16 grid
  t.params.decomp = {8, 8, 8};
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBSymPD);
  // 2Hs = 12 on a 24-voxel axis allows at most 2 parts.
  EXPECT_LE(r.diag.subdomains, 2 * 1 * 1 + 6);  // a<=2, b<=1, c<=1 -> <=2
}

TEST(Diagnostics, SchedColoringIsSmallAndTaskTimesRecorded) {
  TinyInstance t = make_tiny(200, 2, 1);
  t.params.decomp = {4, 4, 4};
  const Result r =
      estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDSched);
  EXPECT_GE(r.diag.num_colors, 1);
  EXPECT_LE(r.diag.num_colors, 27);
  EXPECT_EQ(r.diag.task_seconds.size(),
            static_cast<std::size_t>(r.diag.subdomains));
}

TEST(Diagnostics, RepReplicatesUnderHotSpot) {
  // All mass in one subdomain: the critical path is that one task, so REP
  // must replicate it to meet the T1/(2P) target.
  TinyInstance t = make_tiny(1, 2, 1);
  t.points = data::generate_degenerate(t.domain, 400);
  t.params.decomp = {4, 4, 4};
  t.params.threads = 4;
  const Result r =
      estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDRep);
  EXPECT_GT(r.diag.replication_factor, 1.0);
  EXPECT_GT(r.diag.extra_bytes, 0u);
  // Expanded DAG has more tasks than subdomains.
  EXPECT_GT(r.diag.task_seconds.size(),
            static_cast<std::size_t>(r.diag.subdomains));
}

TEST(Diagnostics, RepWithoutImbalanceDoesNotReplicate) {
  TinyInstance t = make_tiny(1, 1, 1);
  t.points = data::generate_uniform(t.domain, 600, 5);
  t.params.decomp = {3, 3, 3};
  t.params.threads = 1;  // T1/(2P) = T1/2 is an easy target
  const Result r =
      estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDRep);
  EXPECT_DOUBLE_EQ(r.diag.replication_factor, 1.0);
  EXPECT_EQ(r.diag.extra_bytes, 0u);
}

// PD-SCHED is PD-SCHED-REP's colored DAG with every replication factor 1:
// where plan_replication replicates nothing, the two runs build the same
// tasks, priorities and color edges, so their grids agree bit for bit.
TEST(Diagnostics, SchedMatchesSchedRepWhenNothingReplicates) {
  TinyInstance t = make_tiny(1, 1, 1);
  t.points = data::generate_uniform(t.domain, 600, 5);
  t.params.decomp = {3, 3, 3};
  t.params.threads = 1;
  const Result rep =
      estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDSchedRep);
  ASSERT_DOUBLE_EQ(rep.diag.replication_factor, 1.0);
  const Result sched =
      estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDSched);
  EXPECT_EQ(sched.grid.max_abs_diff(rep.grid), 0.0);
  EXPECT_EQ(sched.diag.algorithm, "PB-SYM-PD-SCHED");
  EXPECT_EQ(sched.diag.num_colors, rep.diag.num_colors);
  EXPECT_DOUBLE_EQ(sched.diag.replication_factor, 1.0);
  EXPECT_EQ(sched.diag.extra_bytes, 0u);
  EXPECT_EQ(sched.diag.task_seconds.size(),
            static_cast<std::size_t>(sched.diag.subdomains));
  // T1 and Tinf in point units: T1 is the point count.
  EXPECT_DOUBLE_EQ(sched.diag.total_work, 600.0);
  EXPECT_EQ(sched.phases.phases(),
            (std::vector<std::string>{"bin", "plan", "init", "compute"}));
}

TEST(Estimator, FacadeAndFreeFunctionAgree) {
  TinyInstance t = make_tiny(80, 3, 2);
  const Estimator est(Algorithm::kPBSym, t.params);
  const Result a = est.run(t.points, t.domain);
  const Result b = estimate(t.points, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_DOUBLE_EQ(a.grid.max_abs_diff(b.grid), 0.0);
  EXPECT_EQ(est.algorithm(), Algorithm::kPBSym);
}

TEST(Estimator, ValidatesParamsAtConstruction) {
  Params bad;
  bad.hs = -1.0;
  EXPECT_THROW(Estimator(Algorithm::kPBSym, bad), std::invalid_argument);
  bad.hs = 1.0;
  bad.ht = 0.0;
  EXPECT_THROW(Estimator(Algorithm::kPBSym, bad), std::invalid_argument);
  bad.ht = 1.0;
  bad.threads = -2;
  EXPECT_THROW(Estimator(Algorithm::kPBSym, bad), std::invalid_argument);
}

TEST(Estimator, ValidatesDomainAtRun) {
  TinyInstance t = make_tiny(10, 2, 1);
  DomainSpec bad = t.domain;
  bad.sres = 0.0;
  const Estimator est(Algorithm::kPB, t.params);
  EXPECT_THROW((void)est.run(t.points, bad), std::invalid_argument);
}

TEST(AlgorithmNames, RoundTrip) {
  for (const Algorithm a : all_algorithms())
    EXPECT_EQ(algorithm_by_name(to_string(a)), a);
  EXPECT_THROW((void)algorithm_by_name("PB-NOPE"), std::invalid_argument);
}

TEST(AlgorithmNames, ParallelClassification) {
  EXPECT_FALSE(is_parallel(Algorithm::kVB));
  EXPECT_FALSE(is_parallel(Algorithm::kPBSym));
  EXPECT_TRUE(is_parallel(Algorithm::kPBSymDR));
  EXPECT_TRUE(is_parallel(Algorithm::kPBSymPDSchedRep));
}

TEST(ThreadCounts, MoreThreadsThanTasksIsFine) {
  TinyInstance t = make_tiny(40, 2, 1);
  t.params.threads = 16;
  t.params.decomp = {2, 1, 1};
  const Result r =
      estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDSched);
  const Result ref = estimate(t.points, t.domain, t.params, Algorithm::kVB);
  EXPECT_LE(r.grid.max_abs_diff(ref.grid), testing::grid_tolerance(ref.grid));
}

// PB-SYM-DR splits the Morton-sorted points into P contiguous chunks and
// stamps each through a leased table cache. The split must hold for empty
// input, fewer points than threads (empty chunks) and clustered duplicates
// (arrival order scatters them; the sort makes them neighbours).
struct DrInput {
  std::string name;
  PointSet points;
};

std::vector<DrInput> dr_inputs() {
  PointSet duplicates;
  const PointSet base = make_tiny(30, 3, 2, 5).points;
  for (int copy = 0; copy < 4; ++copy)
    duplicates.insert(duplicates.end(), base.begin(), base.end());
  return {{"empty", {}},
          {"fewer_points_than_threads", make_tiny(3, 3, 2, 9).points},
          {"clustered_duplicates", duplicates}};
}

class DrInputTest : public ::testing::TestWithParam<DrInput> {};

TEST_P(DrInputTest, MatchesPbSymWithOneLookupPerStampedPoint) {
  TinyInstance t = make_tiny(0, 3, 2);
  t.points = GetParam().points;
  t.params.threads = 4;
  const Result ref = estimate(t.points, t.domain, t.params, Algorithm::kPBSym);
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBSymDR);
  EXPECT_LE(r.grid.max_abs_diff(ref.grid),
            1e-5 * static_cast<double>(std::max(ref.grid.max_value(), 0.0f)) +
                1e-12);
  const core::detail::RunSetup s(t.points, t.domain, t.params);
  const Extent3 whole = Extent3::whole(s.map.dims());
  std::int64_t stamped = 0;
  for (const Point& pt : t.points)
    if (!core::detail::clipped_cylinder(s.map, pt, s.Hs, s.Ht, whole).empty())
      ++stamped;
  EXPECT_EQ(r.diag.table_lookups, stamped);
  EXPECT_LE(r.diag.table_fills, r.diag.table_lookups);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadCounts, DrInputTest, ::testing::ValuesIn(dr_inputs()),
    [](const ::testing::TestParamInfo<DrInput>& info) {
      return info.param.name;
    });

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  TinyInstance t = make_tiny(120, 3, 2);
  // Four workers, so the parallel strategies' dynamic task-to-worker
  // assignment can differ between the two runs; PB-TILE inherits them.
  t.params.threads = 4;
  t.params.tile.threads = 0;
  for (const Algorithm a :
       {Algorithm::kPBSym, Algorithm::kPBSymDD, Algorithm::kPBSymPDSched,
        Algorithm::kPBSymDR, Algorithm::kPBSymPD, Algorithm::kPBSymPDRep,
        Algorithm::kPBSymPDSchedRep, Algorithm::kPBTile}) {
    const Result r1 = estimate(t.points, t.domain, t.params, a);
    const Result r2 = estimate(t.points, t.domain, t.params, a);
    EXPECT_DOUBLE_EQ(r1.grid.max_abs_diff(r2.grid), 0.0) << to_string(a);
  }
}

}  // namespace
}  // namespace stkde
