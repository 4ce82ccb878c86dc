#include "grid/reduction.hpp"

#include <gtest/gtest.h>

#include "sched/thread_pool.hpp"
#include "util/rng.hpp"

namespace stkde {
namespace {

DenseGrid3<float> random_grid(const Extent3& e, std::uint64_t seed) {
  DenseGrid3<float> g(e);
  util::Xoshiro256 rng(seed);
  for (std::int64_t i = 0; i < g.size(); ++i)
    g.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return g;
}

TEST(ReduceReplicas, SumsAllReplicas) {
  const Extent3 e{0, 4, 0, 5, 0, 6};
  DenseGrid3<float> dst(e);
  dst.fill(0.0f);
  std::vector<DenseGrid3<float>> reps;
  reps.push_back(random_grid(e, 1));
  reps.push_back(random_grid(e, 2));
  reps.push_back(random_grid(e, 3));
  sched::ThreadPool pool(2);
  reduce_replicas(dst, reps, pool);
  for (std::int64_t i = 0; i < dst.size(); ++i) {
    const float expect =
        reps[0].data()[i] + reps[1].data()[i] + reps[2].data()[i];
    ASSERT_FLOAT_EQ(dst.data()[i], expect);
  }
}

TEST(ReduceReplicas, AddsOntoExistingContent) {
  const Extent3 e{0, 2, 0, 2, 0, 2};
  DenseGrid3<float> dst(e);
  dst.fill(10.0f);
  std::vector<DenseGrid3<float>> reps;
  reps.emplace_back(e);
  reps.back().fill(1.0f);
  sched::ThreadPool pool(1);
  reduce_replicas(dst, reps, pool);
  EXPECT_FLOAT_EQ(dst.at(1, 1, 1), 11.0f);
}

TEST(ReduceReplicas, EmptyReplicaListIsNoop) {
  const Extent3 e{0, 2, 0, 2, 0, 2};
  DenseGrid3<float> dst(e);
  dst.fill(5.0f);
  sched::ThreadPool pool(3);
  reduce_replicas(dst, {}, pool);
  EXPECT_FLOAT_EQ(dst.at(0, 0, 0), 5.0f);
}

TEST(ReduceReplicas, ThreadCountDoesNotChangeResult) {
  const Extent3 e{0, 7, 0, 5, 0, 9};
  std::vector<DenseGrid3<float>> reps;
  reps.push_back(random_grid(e, 4));
  reps.push_back(random_grid(e, 5));
  DenseGrid3<float> d1(e), d4(e);
  d1.fill(0.0f);
  d4.fill(0.0f);
  sched::ThreadPool pool1(1), pool4(4);
  reduce_replicas(d1, reps, pool1);
  reduce_replicas(d4, reps, pool4);
  EXPECT_DOUBLE_EQ(d1.max_abs_diff(d4), 0.0);
}

TEST(ReduceReplicas, PaddedGridsUseTheRowAwarePath) {
  DenseGrid3<float> dst;
  dst.allocate(GridDims{3, 3, 5}, RowPad::kCacheLine);
  ASSERT_TRUE(dst.padded());
  dst.fill(0.0f);
  std::vector<DenseGrid3<float>> reps;
  for (int i = 0; i < 2; ++i) {
    DenseGrid3<float>& r = reps.emplace_back();
    if (i == 0)
      r.allocate(GridDims{3, 3, 5}, RowPad::kCacheLine);
    else
      r.allocate(GridDims{3, 3, 5});
    r.fill(static_cast<float>(i + 1));
  }
  sched::ThreadPool pool(2);
  reduce_replicas(dst, reps, pool);
  EXPECT_DOUBLE_EQ(dst.sum(), 3.0 * 3 * 3 * 5);
  EXPECT_FLOAT_EQ(dst.at(2, 2, 4), 3.0f);
}

TEST(ReduceReplicas, RejectsMismatchedExtent) {
  DenseGrid3<float> dst(Extent3{0, 2, 0, 2, 0, 2});
  std::vector<DenseGrid3<float>> reps;
  reps.emplace_back(Extent3{0, 3, 0, 2, 0, 2});
  sched::ThreadPool pool(1);
  EXPECT_THROW(reduce_replicas(dst, reps, pool), std::invalid_argument);
}

TEST(AccumulateBuffer, AddsOverlapRegionOnly) {
  DenseGrid3<float> dst(Extent3{0, 10, 0, 10, 0, 10});
  dst.fill(0.0f);
  DenseGrid3<float> buf(Extent3{8, 12, 8, 12, 8, 12});  // partially outside
  buf.fill(1.0f);
  accumulate_buffer(dst, buf);
  // Inside the overlap [8,10)^3 every cell gained 1.
  EXPECT_FLOAT_EQ(dst.at(9, 9, 9), 1.0f);
  EXPECT_FLOAT_EQ(dst.at(8, 8, 8), 1.0f);
  // Outside stays 0.
  EXPECT_FLOAT_EQ(dst.at(7, 9, 9), 0.0f);
  EXPECT_FLOAT_EQ(dst.at(9, 7, 9), 0.0f);
  EXPECT_FLOAT_EQ(dst.at(9, 9, 7), 0.0f);
  EXPECT_DOUBLE_EQ(dst.sum(), 8.0);  // 2*2*2 overlap
}

TEST(AccumulateBuffer, RespectsBufferValues) {
  DenseGrid3<float> dst(Extent3{0, 4, 0, 4, 0, 4});
  dst.fill(0.5f);
  DenseGrid3<float> buf(Extent3{1, 3, 1, 3, 1, 3});
  buf.fill(0.0f);
  buf.at(2, 2, 2) = 7.0f;
  accumulate_buffer(dst, buf);
  EXPECT_FLOAT_EQ(dst.at(2, 2, 2), 7.5f);
  EXPECT_FLOAT_EQ(dst.at(1, 1, 1), 0.5f);
}

TEST(AccumulateBuffer, DisjointBufferIsNoop) {
  DenseGrid3<float> dst(Extent3{0, 4, 0, 4, 0, 4});
  dst.fill(1.0f);
  DenseGrid3<float> buf(Extent3{10, 12, 10, 12, 10, 12});
  buf.fill(100.0f);
  accumulate_buffer(dst, buf);
  EXPECT_DOUBLE_EQ(dst.sum(), 64.0);
}

TEST(AccumulateBuffer, DoubleSpecializationWorks) {
  DenseGrid3<double> dst(Extent3{0, 2, 0, 2, 0, 2});
  dst.fill(0.0);
  DenseGrid3<double> buf(Extent3{0, 2, 0, 2, 0, 2});
  buf.fill(0.25);
  accumulate_buffer(dst, buf);
  EXPECT_DOUBLE_EQ(dst.sum(), 2.0);
}

}  // namespace
}  // namespace stkde
