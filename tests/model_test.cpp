#include <gtest/gtest.h>

#include "helpers.hpp"
#include "model/advisor.hpp"
#include "model/calibration.hpp"
#include "model/cost_model.hpp"

namespace stkde::model {
namespace {

using stkde::testing::TinyInstance;
using stkde::testing::make_tiny;

MachineProfile test_profile() {
  MachineProfile m;  // defaults are plausible constants
  m.memory_bytes = 1ULL << 30;
  return m;
}

TEST(Calibration, ProducesPositiveRates) {
  const MachineProfile m = calibrate();
  EXPECT_GT(m.init_bytes_per_sec, 1e6);
  EXPECT_GT(m.reduce_bytes_per_sec, 1e6);
  EXPECT_GT(m.kernel_voxels_per_sec, 1e5);
  EXPECT_GT(m.table_entries_per_sec, 1e5);
  EXPECT_GT(m.bin_points_per_sec, 1e4);
  EXPECT_GT(m.memory_bytes, 0u);
  EXPECT_FALSE(m.to_string().empty());
}

TEST(Calibration, BudgetOverrideRespected) {
  const MachineProfile m = calibrate(12345);
  EXPECT_EQ(m.memory_bytes, 12345u);
}

TEST(CostModel, PredictionsArePositiveAndDecomposed) {
  TinyInstance t = make_tiny(200, 3, 2);
  const MachineProfile m = test_profile();
  for (const Algorithm a :
       {Algorithm::kPBSym, Algorithm::kPBSymDR, Algorithm::kPBSymDD,
        Algorithm::kPBSymPD, Algorithm::kPBSymPDSched,
        Algorithm::kPBSymPDRep, Algorithm::kPBSymPDSchedRep}) {
    const StrategyPrediction p = predict(m, t.points, t.domain, t.params, a);
    EXPECT_GT(p.seconds, 0.0) << to_string(a);
    EXPECT_GT(p.bytes, 0u) << to_string(a);
    EXPECT_NEAR(p.seconds,
                p.init_seconds + p.compute_seconds + p.overhead_seconds, 1e-12)
        << to_string(a);
    EXPECT_EQ(p.algorithm, a);
  }
}

TEST(CostModel, DrMemoryScalesWithThreads) {
  TinyInstance t = make_tiny(100, 2, 1);
  const MachineProfile m = test_profile();
  t.params.threads = 2;
  const auto p2 = predict(m, t.points, t.domain, t.params, Algorithm::kPBSymDR);
  t.params.threads = 8;
  const auto p8 = predict(m, t.points, t.domain, t.params, Algorithm::kPBSymDR);
  EXPECT_GT(p8.bytes, p2.bytes);
  EXPECT_EQ(p8.bytes, t.domain.dims().voxels() * 4 * 9u);
}

TEST(CostModel, DrInfeasibleUnderTinyMemory) {
  TinyInstance t = make_tiny(100, 2, 1);
  MachineProfile m = test_profile();
  m.memory_bytes = 40 * 1024;  // grid is ~30 KiB; P+1 replicas cannot fit
  t.params.threads = 8;
  const auto p = predict(m, t.points, t.domain, t.params, Algorithm::kPBSymDR);
  EXPECT_FALSE(p.feasible);
  const auto seq = predict(m, t.points, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_TRUE(seq.feasible);
}

TEST(CostModel, ComputeBoundInstanceFavorsParallelism) {
  // Many points, large bandwidth, small grid: compute dominates, so DR's
  // predicted time at 8 threads beats sequential PB-SYM.
  TinyInstance t = make_tiny(5000, 6, 4);
  t.params.threads = 8;
  const MachineProfile m = test_profile();
  const auto seq = predict(m, t.points, t.domain, t.params, Algorithm::kPBSym);
  const auto dr = predict(m, t.points, t.domain, t.params, Algorithm::kPBSymDR);
  EXPECT_LT(dr.seconds, seq.seconds);
}

TEST(CostModel, InitBoundInstancePunishesDr) {
  // Huge grid, few points (the Flu regime): DR's P-fold init/reduce makes it
  // slower than sequential PB-SYM — the paper's Fig. 8 "speedup < 1".
  const DomainSpec dom{0, 0, 0, 200, 200, 100, 1.0, 1.0};
  const PointSet pts = data::generate_uniform(dom, 50, 3);
  Params params;
  params.hs = 1.0;
  params.ht = 1.0;
  params.threads = 8;
  const MachineProfile m = test_profile();
  const auto seq = predict(m, pts, dom, params, Algorithm::kPBSym);
  const auto dr = predict(m, pts, dom, params, Algorithm::kPBSymDR);
  EXPECT_GT(dr.seconds, seq.seconds);
}

TEST(CostModel, DdNoteReportsReplicationFactor) {
  TinyInstance t = make_tiny(300, 3, 2);
  t.params.decomp = {4, 4, 4};
  const auto p = predict(test_profile(), t.points, t.domain, t.params,
                         Algorithm::kPBSymDD);
  EXPECT_NE(p.note.find("replication factor"), std::string::npos);
}

TEST(Advisor, RanksFeasibleFirstAndSorted) {
  TinyInstance t = make_tiny(400, 3, 2);
  t.params.threads = 4;
  const Advice a = advise(test_profile(), t.points, t.domain, t.params);
  ASSERT_FALSE(a.ranking.empty());
  ASSERT_EQ(a.ranking.size(), a.configs.size());
  bool seen_infeasible = false;
  double prev = 0.0;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    if (!a.ranking[i].feasible) seen_infeasible = true;
    else EXPECT_FALSE(seen_infeasible) << "feasible after infeasible";
    if (i > 0 && a.ranking[i].feasible == a.ranking[i - 1].feasible) {
      EXPECT_GE(a.ranking[i].seconds, prev - 1e-12);
    }
    prev = a.ranking[i].seconds;
  }
}

TEST(Advisor, BestConfigIsRunnable) {
  TinyInstance t = make_tiny(200, 2, 1);
  t.params.threads = 2;
  const Advice a = advise(test_profile(), t.points, t.domain, t.params,
                          {2, 4});
  const Result ref = estimate(t.points, t.domain, t.params, Algorithm::kVB);
  const Result r = estimate(t.points, t.domain, a.best_config(),
                            a.best().algorithm);
  EXPECT_LE(r.grid.max_abs_diff(ref.grid),
            stkde::testing::grid_tolerance(ref.grid));
}

TEST(Advisor, SweepsRequestedDecompositions) {
  TinyInstance t = make_tiny(100, 2, 1);
  const Advice a = advise(test_profile(), t.points, t.domain, t.params,
                          {2, 8});
  // 2 decomposition-free + 2 sweeps * 4 strategies = 10 candidates.
  EXPECT_EQ(a.ranking.size(), 10u);
}

}  // namespace
}  // namespace stkde::model
