#pragma once
/// \file memory.hpp
/// Memory-size formatting and a soft memory budget used to reproduce the
/// paper's out-of-memory behaviour (PB-SYM-DR and low-decomposition
/// PB-SYM-PD-REP exceed the machine's 128 GB on some instances; we detect
/// that *before* allocating and fail with a typed error instead of crashing).

#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace stkde::util {

/// Alignment of every hot accumulation buffer (grid rows, invariant tables):
/// one cache line, which also satisfies any AVX-512 aligned-load requirement.
inline constexpr std::size_t kSimdAlign = 64;

template <typename T>
struct AlignedDeleter {
  void operator()(T* p) const noexcept {
    ::operator delete[](static_cast<void*>(p), std::align_val_t{kSimdAlign});
  }
};

/// Owning pointer to a kSimdAlign-aligned, *uninitialized* array.
template <typename T>
using AlignedArray = std::unique_ptr<T[], AlignedDeleter<T>>;

/// Allocate \p n elements aligned to kSimdAlign. The memory is raw — callers
/// must write every element before reading it (all users fill the buffer as
/// their first pass, which is why the old zero-fill was pure waste). Throws
/// std::bad_array_new_length when \p n elements' bytes overflow size_t.
template <typename T>
[[nodiscard]] AlignedArray<T> allocate_aligned(std::size_t n) {
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedArray skips destructors");
  if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
    throw std::bad_array_new_length();
  return AlignedArray<T>(static_cast<T*>(
      ::operator new[](n * sizeof(T), std::align_val_t{kSimdAlign})));
}

/// Thrown when an algorithm's predicted allocation exceeds the budget.
/// The benches catch this and print "OOM" like the paper's figures do.
class MemoryBudgetExceeded : public std::runtime_error {
 public:
  MemoryBudgetExceeded(std::uint64_t requested, std::uint64_t budget);

  [[nodiscard]] std::uint64_t requested() const { return requested_; }
  [[nodiscard]] std::uint64_t budget() const { return budget_; }

 private:
  std::uint64_t requested_;
  std::uint64_t budget_;
};

/// "79MB", "6252MB", "59570MB" — the paper's Table 2 unit (MiB, truncated),
/// plus adaptive human formatting for logs.
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);
[[nodiscard]] std::uint64_t to_mib(std::uint64_t bytes);

/// Physically available memory in bytes (cgroup-aware when possible,
/// falling back to /proc/meminfo, then to 4 GiB).
[[nodiscard]] std::uint64_t available_memory_bytes();

/// Process-wide soft budget. Defaults to available_memory_bytes() at first
/// use; overridable (tests inject small budgets to exercise OOM paths).
class MemoryBudget {
 public:
  /// Global budget instance.
  static MemoryBudget& instance();

  /// Throws MemoryBudgetExceeded if \p bytes exceeds the budget.
  void require(std::uint64_t bytes) const;

  [[nodiscard]] std::uint64_t limit() const { return limit_; }
  void set_limit(std::uint64_t bytes) { limit_ = bytes; }

 private:
  MemoryBudget();
  std::uint64_t limit_;
};

}  // namespace stkde::util
