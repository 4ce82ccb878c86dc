#pragma once
/// Shared fixtures for the stkde test suite.

#include <cstdint>
#include <string>

#include "core/estimator.hpp"
#include "data/generator.hpp"
#include "geom/domain.hpp"
#include "util/memory.hpp"

namespace stkde::testing {

/// A small instance every algorithm (including VB) can run in milliseconds.
struct TinyInstance {
  DomainSpec domain;
  PointSet points;
  Params params;
};

/// Clustered tiny instance: dims ~ (24, 20, 16), n points, bandwidths in
/// voxels (sres = tres = 1).
TinyInstance make_tiny(std::size_t n, std::int32_t Hs, std::int32_t Ht,
                       std::uint64_t seed = 1);

/// Relative max-abs-diff comparison threshold for float grids produced by
/// different accumulation orders.
double grid_tolerance(const DensityGrid& reference);

/// The bytes of the file at \p path as lowercase hex, two digits a byte
/// (golden-format tests compare whole files against a literal).
[[nodiscard]] std::string file_hex(const std::string& path);

/// RAII override of the process memory budget (restores on destruction).
class ScopedMemoryBudget {
 public:
  explicit ScopedMemoryBudget(std::uint64_t bytes)
      : saved_(util::MemoryBudget::instance().limit()) {
    util::MemoryBudget::instance().set_limit(bytes);
  }
  ~ScopedMemoryBudget() { util::MemoryBudget::instance().set_limit(saved_); }
  ScopedMemoryBudget(const ScopedMemoryBudget&) = delete;
  ScopedMemoryBudget& operator=(const ScopedMemoryBudget&) = delete;

 private:
  std::uint64_t saved_;
};

}  // namespace stkde::testing
