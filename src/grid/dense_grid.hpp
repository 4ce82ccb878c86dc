#pragma once
/// \file dense_grid.hpp
/// Dense 3D voxel grid with T-innermost layout.
///
/// Layout: flat index = (X * Gy + Y) * Gt + T. T is innermost so the PB-SYM
/// accumulation loop `grid(X,Y,T) += Ks[X][Y] * Kt[T]` walks contiguous
/// memory and vectorizes (design choice ablated by bench_micro_grid).
///
/// Storage is float by default — the paper's Table 2 grid sizes correspond
/// to 4 bytes/voxel (e.g. Dengue 148x194x728 = 79 MB). Tests use
/// DenseGrid3<double> as the high-precision reference.
///
/// Allocation is uninitialized; fill() performs the (timed) initialization
/// pass — the paper measures memory initialization as its own phase and
/// shows it dominating sparse instances (Fig. 7). The base allocation is
/// 64-byte aligned (util::kSimdAlign). By default rows are packed, so an
/// individual (X, Y) row is aligned only when nt * sizeof(T) is a multiple
/// of 64 and the SIMD scatter core uses unaligned vector accesses; an
/// allocation with RowPad::kCacheLine instead pads the T-row stride up to
/// the next 64-byte multiple so *every* row starts cache-line aligned
/// (PB-TILE's result grid uses this). Padding cells are storage only —
/// fill() initializes them, every other operation skips them, and the
/// flat data() walk is only layout-dense when padded() is false.

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>

#include "geom/domain.hpp"
#include "grid/extent.hpp"
#include "util/memory.hpp"

namespace stkde::sched {
class ThreadPool;
}  // namespace stkde::sched

namespace stkde {

/// Row-stride policy for DenseGrid3 allocations.
enum class RowPad {
  kNone,       ///< packed T-rows (stride == nt); data() is layout-dense
  kCacheLine,  ///< stride rounded up so every T-row starts 64-byte aligned
};

template <typename T = float>
class DenseGrid3 {
 public:
  using value_type = T;

  DenseGrid3() = default;

  /// Allocates (uninitialized) storage for \p dims. Checks the process
  /// memory budget first and throws util::MemoryBudgetExceeded when the
  /// grid cannot fit (reproducing the paper's OOM cases gracefully).
  explicit DenseGrid3(const GridDims& dims) { allocate(dims); }

  /// Allocate for an arbitrary extent (used for subdomain replica buffers).
  explicit DenseGrid3(const Extent3& ext) { allocate(ext); }

  void allocate(const GridDims& dims, RowPad pad = RowPad::kNone) {
    allocate(Extent3::whole(dims), pad);
  }

  /// An extent whose element or byte count overflows 64 bits throws
  /// util::MemoryBudgetExceeded like any other over-budget grid.
  void allocate(const Extent3& ext, RowPad pad = RowPad::kNone) {
    if (ext.empty()) throw std::invalid_argument("DenseGrid3: empty extent");
    constexpr std::int64_t kLine =
        static_cast<std::int64_t>(util::kSimdAlign / sizeof(T));
    std::int64_t stride = ext.nt();
    if (pad == RowPad::kCacheLine && kLine > 1)
      stride = (stride + kLine - 1) / kLine * kLine;
    // nx * ny < 2^62 always; times the row stride or the element size, the
    // count can wrap, which would pass any budget as a small request.
    const std::int64_t columns = static_cast<std::int64_t>(ext.nx()) * ext.ny();
    constexpr std::int64_t kMaxElems = std::numeric_limits<std::int64_t>::max() /
                                       static_cast<std::int64_t>(sizeof(T));
    const util::MemoryBudget& budget = util::MemoryBudget::instance();
    if (columns > kMaxElems / stride)
      throw util::MemoryBudgetExceeded(
          std::numeric_limits<std::uint64_t>::max(), budget.limit());
    const std::int64_t alloc = columns * stride;
    budget.require(static_cast<std::uint64_t>(alloc) * sizeof(T));
    ext_ = ext;
    stride_y_ = stride;
    stride_x_ = static_cast<std::int64_t>(ext.ny()) * stride;
    size_ = alloc;
    data_ = util::allocate_aligned<T>(static_cast<std::size_t>(size_));
  }

  [[nodiscard]] bool allocated() const { return data_ != nullptr; }
  /// Allocated elements (== extent().volume() unless padded()).
  [[nodiscard]] std::int64_t size() const { return size_; }
  /// True when T-rows carry alignment padding (RowPad::kCacheLine and
  /// nt not already a cache-line multiple).
  [[nodiscard]] bool padded() const { return stride_y_ != ext_.nt(); }
  /// Elements between consecutive (X, Y) rows (== nt() when unpadded).
  [[nodiscard]] std::int64_t row_stride() const { return stride_y_; }
  [[nodiscard]] const Extent3& extent() const { return ext_; }
  [[nodiscard]] GridDims dims() const {
    return GridDims{ext_.nx(), ext_.ny(), ext_.nt()};
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(size_) * sizeof(T);
  }

  /// Flat index of absolute voxel (X, Y, Tt). Bounds are the extent's.
  [[nodiscard]] std::int64_t index(std::int32_t X, std::int32_t Y,
                                   std::int32_t Tt) const {
    return static_cast<std::int64_t>(X - ext_.xlo) * stride_x_ +
           static_cast<std::int64_t>(Y - ext_.ylo) * stride_y_ + (Tt - ext_.tlo);
  }

  [[nodiscard]] T& at(std::int32_t X, std::int32_t Y, std::int32_t Tt) {
    return data_[index(X, Y, Tt)];
  }
  [[nodiscard]] const T& at(std::int32_t X, std::int32_t Y,
                            std::int32_t Tt) const {
    return data_[index(X, Y, Tt)];
  }

  /// Pointer to the T-contiguous row at (X, Y), positioned at T = tlo.
  [[nodiscard]] T* row(std::int32_t X, std::int32_t Y) {
    return data_.get() + index(X, Y, ext_.tlo);
  }
  [[nodiscard]] const T* row(std::int32_t X, std::int32_t Y) const {
    return data_.get() + index(X, Y, ext_.tlo);
  }

  [[nodiscard]] T* data() { return data_.get(); }
  [[nodiscard]] const T* data() const { return data_.get(); }

  /// Sequential initialization (the PB "init" phase).
  void fill(T v);

  /// Parallel first-touch initialization, one flat chunk per worker of
  /// \p pool. The paper observes this phase is memory-bound (speedup ~3
  /// at 16T).
  void fill_parallel(T v, sched::ThreadPool& pool);

  /// this = src. Allocates to src's extent when not yet allocated; throws
  /// on extent mismatch otherwise. SIMD flat copy (the streaming engine's
  /// snapshot-publish path).
  void copy_from(const DenseGrid3& src);

  /// this = src * scale, the multiply carried out in double and rounded
  /// once to T (the snapshot normalization path: long streams must not
  /// compound float division error). Allocation rules as copy_from.
  void assign_scaled(const DenseGrid3& src, double scale);

  /// this(region) = src(region), where region is additionally clipped to
  /// both extents. Row-wise T-contiguous copies (the streaming engine's
  /// incremental publish: refresh only the cells a batch touched).
  void copy_region(const DenseGrid3& src, const Extent3& region);

  /// Sum of all cells (double accumulation).
  [[nodiscard]] double sum() const;

  /// Max |a - b| over two grids of identical extent.
  [[nodiscard]] double max_abs_diff(const DenseGrid3& other) const;

  /// Maximum cell value (0 for empty grids).
  [[nodiscard]] T max_value() const;

 private:
  util::AlignedArray<T> data_;
  Extent3 ext_{};
  std::int64_t stride_x_ = 0;
  std::int64_t stride_y_ = 0;
  std::int64_t size_ = 0;
};

extern template class DenseGrid3<float>;
extern template class DenseGrid3<double>;

/// Default density grid type used throughout the library.
using DensityGrid = DenseGrid3<float>;

}  // namespace stkde
