#include "util/memory.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <new>

#include "helpers.hpp"

namespace stkde::util {
namespace {

TEST(FormatBytes, PicksUnits) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(2048), "2KB");
  EXPECT_EQ(format_bytes(79ULL << 20), "79MB");
  EXPECT_EQ(format_bytes(2ULL << 30), "2.00GB");
}

TEST(FormatBytes, MatchesPaperTable2Sizes) {
  // Table 2 reports grid sizes at 4 bytes/voxel in MiB; the paper's column
  // rounds inconsistently (+-2 MiB), so we assert proximity, not equality.
  EXPECT_EQ(to_mib(148ULL * 194 * 728 * 4), 79u);  // Dengue Lr: exact
  EXPECT_NEAR(static_cast<double>(to_mib(6501ULL * 3001 * 84 * 4)), 6252.0,
              2.0);  // PollenUS VHr
  EXPECT_NEAR(static_cast<double>(to_mib(1781ULL * 3601 * 2435 * 4)), 59570.0,
              3.0);  // eBird Hr
}

TEST(AvailableMemory, ReturnsSomethingPlausible) {
  const std::uint64_t m = available_memory_bytes();
  EXPECT_GT(m, 64ULL << 20);
}

TEST(MemoryBudget, RequireBelowLimitPasses) {
  stkde::testing::ScopedMemoryBudget guard(1 << 20);
  EXPECT_NO_THROW(MemoryBudget::instance().require(1 << 19));
}

TEST(MemoryBudget, RequireAboveLimitThrowsTyped) {
  stkde::testing::ScopedMemoryBudget guard(1 << 20);
  try {
    MemoryBudget::instance().require(1 << 21);
    FAIL() << "expected MemoryBudgetExceeded";
  } catch (const MemoryBudgetExceeded& e) {
    EXPECT_EQ(e.requested(), 1u << 21);
    EXPECT_EQ(e.budget(), 1u << 20);
    EXPECT_NE(std::string(e.what()).find("memory budget"), std::string::npos);
  }
}

TEST(AllocateAligned, ByteCountOverflowThrows) {
  // n * sizeof(T) would wrap to a small request.
  const std::size_t n = (std::numeric_limits<std::size_t>::max() >> 2) + 2;
  EXPECT_THROW((void)allocate_aligned<float>(n), std::bad_array_new_length);
  EXPECT_THROW((void)allocate_aligned<double>(n), std::bad_array_new_length);
}

TEST(MemoryBudget, ScopedOverrideRestores) {
  const std::uint64_t before = MemoryBudget::instance().limit();
  {
    stkde::testing::ScopedMemoryBudget guard(42);
    EXPECT_EQ(MemoryBudget::instance().limit(), 42u);
  }
  EXPECT_EQ(MemoryBudget::instance().limit(), before);
}

}  // namespace
}  // namespace stkde::util
