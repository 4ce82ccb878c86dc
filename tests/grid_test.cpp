#include "grid/dense_grid.hpp"

#include <gtest/gtest.h>

#include "grid/extent.hpp"
#include "helpers.hpp"
#include "sched/thread_pool.hpp"

namespace stkde {
namespace {

TEST(Extent3, VolumeAndEmptiness) {
  const Extent3 e{0, 2, 0, 3, 0, 4};
  EXPECT_EQ(e.volume(), 24);
  EXPECT_FALSE(e.empty());
  const Extent3 degenerate{5, 5, 0, 3, 0, 4};
  EXPECT_TRUE(degenerate.empty());
  EXPECT_EQ(degenerate.volume(), 0);
}

TEST(Extent3, IntersectionCommutesAndClips) {
  const Extent3 a{0, 10, 0, 10, 0, 10};
  const Extent3 b{5, 15, -5, 7, 9, 20};
  const Extent3 ab = a.intersect(b);
  EXPECT_EQ(ab, b.intersect(a));
  EXPECT_EQ(ab, (Extent3{5, 10, 0, 7, 9, 10}));
  EXPECT_TRUE(a.intersects(b));
  const Extent3 far{100, 110, 0, 10, 0, 10};
  EXPECT_FALSE(a.intersects(far));
}

TEST(Extent3, ExpandedGrowsAsymmetrically) {
  const Extent3 e{5, 10, 5, 10, 5, 10};
  const Extent3 x = e.expanded(2, 3);
  EXPECT_EQ(x, (Extent3{3, 12, 3, 12, 2, 13}));
}

TEST(Extent3, CylinderBoundsArePlusMinusBandwidth) {
  const Extent3 c = Extent3::cylinder(Voxel{10, 20, 30}, 2, 4);
  EXPECT_EQ(c, (Extent3{8, 13, 18, 23, 26, 35}));
  EXPECT_EQ(c.volume(), 5LL * 5 * 9);
}

TEST(Extent3, ContainsHalfOpenSemantics) {
  const Extent3 e{0, 2, 0, 2, 0, 2};
  EXPECT_TRUE(e.contains(0, 0, 0));
  EXPECT_TRUE(e.contains(1, 1, 1));
  EXPECT_FALSE(e.contains(2, 0, 0));
  EXPECT_FALSE(e.contains(-1, 0, 0));
}

TEST(DenseGrid, IndexingIsTInnermost) {
  DenseGrid3<float> g(GridDims{3, 4, 5});
  EXPECT_EQ(g.index(0, 0, 0), 0);
  EXPECT_EQ(g.index(0, 0, 1), 1);       // T adjacent
  EXPECT_EQ(g.index(0, 1, 0), 5);       // Y stride = Gt
  EXPECT_EQ(g.index(1, 0, 0), 20);      // X stride = Gy*Gt
  EXPECT_EQ(g.size(), 60);
}

TEST(DenseGrid, RowPointerWalksT) {
  DenseGrid3<float> g(GridDims{2, 2, 4});
  g.fill(0.0f);
  float* row = g.row(1, 1);
  for (int t = 0; t < 4; ++t) row[t] = static_cast<float>(t);
  for (std::int32_t t = 0; t < 4; ++t)
    EXPECT_FLOAT_EQ(g.at(1, 1, t), static_cast<float>(t));
}

TEST(DenseGrid, OffsetExtentUsesAbsoluteCoordinates) {
  // Halo buffers are grids whose extent does not start at 0.
  DenseGrid3<float> g(Extent3{10, 14, 20, 22, 5, 8});
  g.fill(0.0f);
  g.at(12, 21, 6) = 3.5f;
  EXPECT_FLOAT_EQ(g.at(12, 21, 6), 3.5f);
  EXPECT_EQ(g.size(), 4LL * 2 * 3);
  EXPECT_FLOAT_EQ(g.row(12, 21)[6 - 5], 3.5f);
}

TEST(DenseGrid, FillSetsEverything) {
  DenseGrid3<float> g(GridDims{4, 4, 4});
  g.fill(2.5f);
  EXPECT_DOUBLE_EQ(g.sum(), 2.5 * 64);
}

TEST(DenseGrid, FillParallelMatchesFill) {
  DenseGrid3<float> a(GridDims{8, 9, 10}), b(GridDims{8, 9, 10});
  a.fill(1.25f);
  sched::ThreadPool pool(4);
  b.fill_parallel(1.25f, pool);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
}

TEST(DenseGrid, SumAndMaxValue) {
  DenseGrid3<float> g(GridDims{2, 2, 2});
  g.fill(0.0f);
  g.at(0, 1, 1) = 4.0f;
  g.at(1, 0, 0) = -1.0f;
  EXPECT_DOUBLE_EQ(g.sum(), 3.0);
  EXPECT_FLOAT_EQ(g.max_value(), 4.0f);
}

TEST(DenseGrid, MaxAbsDiffDetectsDifferences) {
  DenseGrid3<float> a(GridDims{2, 2, 2}), b(GridDims{2, 2, 2});
  a.fill(0.0f);
  b.fill(0.0f);
  b.at(1, 1, 1) = 0.5f;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.5);
}

TEST(DenseGrid, MaxAbsDiffRejectsMismatchedExtents) {
  DenseGrid3<float> a(GridDims{2, 2, 2}), b(GridDims{2, 2, 3});
  EXPECT_THROW((void)a.max_abs_diff(b), std::invalid_argument);
}

TEST(DenseGrid, EmptyExtentRejected) {
  EXPECT_THROW(DenseGrid3<float>(Extent3{0, 0, 0, 1, 0, 1}),
               std::invalid_argument);
}

TEST(DenseGrid, AllocationRespectsMemoryBudget) {
  stkde::testing::ScopedMemoryBudget guard(1 << 20);  // 1 MiB
  EXPECT_THROW(DenseGrid3<float>(GridDims{1024, 1024, 16}),
               util::MemoryBudgetExceeded);
  EXPECT_NO_THROW(DenseGrid3<float>(GridDims{32, 32, 32}));
}

TEST(DenseGrid, DoubleGridBytesAreLarger) {
  DenseGrid3<float> f(GridDims{4, 4, 4});
  DenseGrid3<double> d(GridDims{4, 4, 4});
  EXPECT_EQ(f.bytes() * 2, d.bytes());
}

TEST(DenseGrid, DefaultConstructedIsUnallocated) {
  DenseGrid3<float> g;
  EXPECT_FALSE(g.allocated());
  EXPECT_EQ(g.size(), 0);
}

TEST(Extent3, HullCoversBothAndTreatsEmptyAsIdentity) {
  const Extent3 a{1, 3, 2, 5, 0, 4};
  const Extent3 b{2, 6, 0, 3, 1, 2};
  const Extent3 h = a.hull(b);
  EXPECT_EQ(h, (Extent3{1, 6, 0, 5, 0, 4}));
  EXPECT_EQ(Extent3{}.hull(a), a);
  EXPECT_EQ(a.hull(Extent3{}), a);
}

TEST(DenseGrid, CopyRegionRefreshesOnlyTheBox) {
  DenseGrid3<float> src(GridDims{6, 5, 4});
  DenseGrid3<float> dst(GridDims{6, 5, 4});
  src.fill(2.0f);
  dst.fill(0.0f);
  const Extent3 region{1, 3, 2, 4, 0, 4};
  dst.copy_region(src, region);
  for (std::int32_t x = 0; x < 6; ++x)
    for (std::int32_t y = 0; y < 5; ++y)
      for (std::int32_t tt = 0; tt < 4; ++tt)
        EXPECT_EQ(dst.at(x, y, tt), region.contains(x, y, tt) ? 2.0f : 0.0f);
  // Out-of-range boxes clip; empty boxes are no-ops.
  dst.copy_region(src, Extent3{-5, 100, -5, 100, 2, 2});
  EXPECT_EQ(dst.at(5, 4, 3), 0.0f);
}

TEST(DenseGrid, CopyFromReplicatesAndAllocates) {
  DenseGrid3<float> src(GridDims{5, 4, 3});
  for (std::int64_t i = 0; i < src.size(); ++i)
    src.data()[i] = static_cast<float>(i) * 0.5f;
  DenseGrid3<float> dst;  // unallocated: copy_from allocates to src's extent
  dst.copy_from(src);
  EXPECT_EQ(dst.extent(), src.extent());
  EXPECT_DOUBLE_EQ(dst.max_abs_diff(src), 0.0);
  // Re-copy into the now-allocated grid overwrites in place.
  src.data()[7] = 123.0f;
  dst.copy_from(src);
  EXPECT_DOUBLE_EQ(dst.max_abs_diff(src), 0.0);
  DenseGrid3<float> wrong(GridDims{2, 2, 2});
  EXPECT_THROW(wrong.copy_from(src), std::invalid_argument);
}

// --- 64-byte-padded T-row stride (RowPad::kCacheLine) -----------------------

TEST(DenseGrid, PaddedRowsAreCacheLineAligned) {
  // 7 floats/row = 28 bytes: packed rows misalign every other row; padded
  // rows round the stride to 16 floats so every row starts on a line.
  DenseGrid3<float> g;
  g.allocate(GridDims{5, 4, 7}, RowPad::kCacheLine);
  EXPECT_TRUE(g.padded());
  EXPECT_EQ(g.row_stride(), 16);
  EXPECT_EQ(g.size(), 5LL * 4 * 16);
  for (std::int32_t x = 0; x < 5; ++x)
    for (std::int32_t y = 0; y < 4; ++y)
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.row(x, y)) %
                    util::kSimdAlign,
                0u)
          << "row (" << x << ", " << y << ") misaligned";
  // Already-aligned rows gain no padding.
  DenseGrid3<float> aligned;
  aligned.allocate(GridDims{3, 3, 16}, RowPad::kCacheLine);
  EXPECT_FALSE(aligned.padded());
  EXPECT_EQ(aligned.size(), aligned.extent().volume());
}

TEST(DenseGrid, PaddedReductionsSkipPaddingCells) {
  DenseGrid3<float> g;
  g.allocate(GridDims{3, 3, 5}, RowPad::kCacheLine);
  ASSERT_TRUE(g.padded());
  g.fill(2.5f);  // fills padding cells too — reductions must not see them
  EXPECT_DOUBLE_EQ(g.sum(), 2.5 * 3 * 3 * 5);
  EXPECT_FLOAT_EQ(g.max_value(), 2.5f);
  g.fill(0.0f);
  g.at(2, 2, 4) = 7.0f;
  EXPECT_FLOAT_EQ(g.max_value(), 7.0f);
  EXPECT_DOUBLE_EQ(g.sum(), 7.0);
}

TEST(DenseGrid, PaddedAndPackedGridsInteroperate) {
  DenseGrid3<float> packed(GridDims{4, 3, 6});
  packed.fill(0.0f);
  packed.at(1, 2, 3) = 4.0f;
  DenseGrid3<float> padded;
  padded.allocate(GridDims{4, 3, 6}, RowPad::kCacheLine);
  ASSERT_TRUE(padded.padded());
  padded.copy_from(packed);
  EXPECT_DOUBLE_EQ(padded.max_abs_diff(packed), 0.0);
  padded.at(0, 0, 0) = 1.5f;
  EXPECT_DOUBLE_EQ(packed.max_abs_diff(padded), 1.5);
  // assign_scaled across layouts keeps the double-multiply contract.
  DenseGrid3<float> scaled;
  scaled.allocate(GridDims{4, 3, 6}, RowPad::kCacheLine);
  scaled.assign_scaled(packed, 0.5);
  EXPECT_FLOAT_EQ(scaled.at(1, 2, 3), 2.0f);
  EXPECT_DOUBLE_EQ(scaled.sum(), 2.0);
  // copy_from into an unallocated grid adopts the source layout.
  DenseGrid3<float> adopted;
  adopted.copy_from(padded);
  EXPECT_TRUE(adopted.padded());
  EXPECT_DOUBLE_EQ(adopted.max_abs_diff(padded), 0.0);
}

TEST(DenseGrid, PaddedAllocationChargesTheBudgetForPadding) {
  // 1 float/row padded to 16: the allocation is 16x the logical volume and
  // the budget must account for it.
  stkde::testing::ScopedMemoryBudget guard(1 << 20);  // 1 MiB
  DenseGrid3<float> g;
  EXPECT_NO_THROW(g.allocate(GridDims{130, 128, 1}));  // 65 KiB packed
  EXPECT_THROW(g.allocate(GridDims{130, 128, 1}, RowPad::kCacheLine),
               util::MemoryBudgetExceeded);  // 16x padded: over the budget
}

TEST(DenseGrid, AssignScaledRoundsOnceThroughDouble) {
  DenseGrid3<float> src(GridDims{3, 3, 3});
  for (std::int64_t i = 0; i < src.size(); ++i)
    src.data()[i] = 1.0f + static_cast<float>(i);
  const double scale = 1.0 / 7.0;
  DenseGrid3<float> dst;
  dst.assign_scaled(src, scale);
  for (std::int64_t i = 0; i < src.size(); ++i) {
    // Exact contract: double multiply, single rounding to float.
    const float expect = static_cast<float>(
        static_cast<double>(src.data()[i]) * scale);
    EXPECT_EQ(dst.data()[i], expect);
  }
  DenseGrid3<float> wrong(GridDims{2, 2, 2});
  EXPECT_THROW(wrong.assign_scaled(src, scale), std::invalid_argument);
}

}  // namespace
}  // namespace stkde
