#pragma once
/// \file invariants.hpp
/// The two per-point invariant tables PB-SYM exploits (paper §3.2, Fig. 3):
///  - SpatialInvariant "disk": Ks[X][Y] = ks((x-xi)/hs, (y-yi)/hs) * scale,
///    temporally invariant — identical for every T-plane of the cylinder.
///  - TemporalInvariant "bar": Kt[T] = kt((t-ti)/ht),
///    spatially invariant — identical for every (X, Y)-column.
/// The density contribution of point i to voxel (X,Y,T) is Ks[X][Y]*Kt[T].
///
/// Precision policy (docs/SCATTER_CORE.md): kernels are *evaluated* in
/// double at table-fill time, then stored as float — the accumulation grid
/// is float, so float tables remove a double→float convert from every FMA
/// of the scatter loop without changing what precision reaches the grid.
///
/// Layout: values are 64-byte-aligned (util::kSimdAlign) and the spatial
/// table carries per-row nonzero Y-spans [y_span_lo(X), y_span_hi(X)), the
/// exact nonzero run of the disk in row X. Accumulation loops iterate spans
/// instead of branching per voxel on `ks == 0` — roughly 1-π/4 of the
/// (2Hs+1)² square lies outside the disk and is never touched.
///
/// Tables are reusable scratch buffers: compute() re-fills in place and
/// never reallocates while the bandwidth is unchanged, so a worker
/// processes millions of points with zero allocator traffic.

#include <cstdint>
#include <vector>

#include "geom/voxel_mapper.hpp"
#include "kernels/kernels.hpp"
#include "util/memory.hpp"

namespace stkde::kernels {

/// Dense (2Hs+1)^2 float table of spatial kernel values around a point,
/// aligned to the voxel grid. Rows may fall outside the grid; accumulation
/// loops clip.
class SpatialInvariant {
 public:
  /// Fill the table for point \p p. \p scale is folded into every entry
  /// (PB-SYM stores ks(...)/(n hs^2 ht) directly, per Algorithm 3).
  template <SeparableKernel K>
  void compute(const K& k, const VoxelMapper& map, const Point& p, double hs,
               std::int32_t Hs, double scale) {
    const Voxel c = map.voxel_of(p);
    x_lo_ = c.x - Hs;
    y_lo_ = c.y - Hs;
    side_ = 2 * Hs + 1;
    const auto cells = static_cast<std::size_t>(side_) * side_;
    if (cells > capacity_) {
      values_ = util::allocate_aligned<float>(cells);
      capacity_ = cells;
    }
    span_lo_.resize(static_cast<std::size_t>(side_));
    span_hi_.resize(static_cast<std::size_t>(side_));
    nonzero_ = 0;
    span_cells_ = 0;
    const double inv_hs = 1.0 / hs;
    for (std::int32_t dx = 0; dx < side_; ++dx) {
      const double u = (map.x_of(x_lo_ + dx) - p.x) * inv_hs;
      float* const row = values_.get() + static_cast<std::size_t>(dx) * side_;
      // Pass 1 — branchless eval+store, so the compiler vectorizes the
      // kernel arithmetic (tracking spans inline here serializes the loop
      // and made the fill ~6x slower than the accumulation it feeds).
      for (std::int32_t dy = 0; dy < side_; ++dy) {
        const double v = (map.y_of(y_lo_ + dy) - p.y) * inv_hs;
        row[dy] = static_cast<float>(k.spatial(u, v) * scale);
      }
      scan_row_span(dx, row);
    }
  }

  /// Fill the table from the point's *fractional offset* inside its voxel
  /// instead of its absolute position: with fx = (px - x0)/sres - cx (and
  /// likewise fy), the normalized spatial offset of table cell (dx, dy) is
  ///   u = ((dx - Hs) + 0.5 - fx) * sres / hs,
  /// independent of which voxel the point sits in. This is the translation
  /// invariance the table cache (table_cache.hpp) keys on: co-located
  /// offsets share one table, repositioned per point via rebase(). The
  /// origin is set to (-Hs, -Hs); call rebase() before accumulating.
  template <SeparableKernel K>
  void compute_offset(const K& k, double fx, double fy, double sres, double hs,
                      std::int32_t Hs, double scale) {
    x_lo_ = -Hs;
    y_lo_ = -Hs;
    side_ = 2 * Hs + 1;
    const auto cells = static_cast<std::size_t>(side_) * side_;
    if (cells > capacity_) {
      values_ = util::allocate_aligned<float>(cells);
      capacity_ = cells;
    }
    span_lo_.resize(static_cast<std::size_t>(side_));
    span_hi_.resize(static_cast<std::size_t>(side_));
    nonzero_ = 0;
    span_cells_ = 0;
    const double inv_hs = sres / hs;
    for (std::int32_t dx = 0; dx < side_; ++dx) {
      const double u = (static_cast<double>(dx - Hs) + 0.5 - fx) * inv_hs;
      float* const row = values_.get() + static_cast<std::size_t>(dx) * side_;
      for (std::int32_t dy = 0; dy < side_; ++dy) {
        const double v = (static_cast<double>(dy - Hs) + 0.5 - fy) * inv_hs;
        row[dy] = static_cast<float>(k.spatial(u, v) * scale);
      }
      scan_row_span(dx, row);
    }
  }

  /// Reposition the table's origin to absolute voxel (x_lo, y_lo) without
  /// touching the values — valid because the table contents depend only on
  /// the point's sub-voxel offset (see compute_offset). O(1).
  void rebase(std::int32_t x_lo, std::int32_t y_lo) {
    x_lo_ = x_lo;
    y_lo_ = y_lo;
  }

  /// First voxel row/column covered by the table (may be negative).
  [[nodiscard]] std::int32_t x_lo() const { return x_lo_; }
  [[nodiscard]] std::int32_t y_lo() const { return y_lo_; }
  /// Table edge length, 2Hs+1.
  [[nodiscard]] std::int32_t side() const { return side_; }
  /// Total table cells, side()^2.
  [[nodiscard]] std::int64_t cells() const {
    return static_cast<std::int64_t>(side_) * side_;
  }
  /// Entries strictly inside the kernel support.
  [[nodiscard]] std::int64_t nonzero() const { return nonzero_; }
  /// Cells covered by the per-row Y-spans (== nonzero for convex supports).
  [[nodiscard]] std::int64_t span_cells() const { return span_cells_; }

  /// Absolute-Y nonzero span of row X: [y_span_lo(X), y_span_hi(X)).
  /// Empty rows return an empty span at y_lo().
  [[nodiscard]] std::int32_t y_span_lo(std::int32_t X) const {
    return y_lo_ + span_lo_[static_cast<std::size_t>(X - x_lo_)];
  }
  [[nodiscard]] std::int32_t y_span_hi(std::int32_t X) const {
    return y_lo_ + span_hi_[static_cast<std::size_t>(X - x_lo_)];
  }

  /// Value at absolute voxel (X, Y); caller guarantees the voxel is covered.
  [[nodiscard]] float at(std::int32_t X, std::int32_t Y) const {
    return values_[static_cast<std::size_t>(X - x_lo_) * side_ + (Y - y_lo_)];
  }

  /// Row pointer for absolute voxel row X, indexed by absolute Y - y_lo().
  [[nodiscard]] const float* row(std::int32_t X) const {
    return values_.get() + static_cast<std::size_t>(X - x_lo_) * side_;
  }

  /// Backing storage (64-byte aligned). Stable across compute() calls with
  /// unchanged bandwidth — the reallocation-churn regression test pins this.
  [[nodiscard]] const float* data() const { return values_.get(); }

 private:
  /// Pass 2 of a row fill — two-ended scan for the nonzero span: only the
  /// ~(1-π/4) corner cells outside the disk are re-read.
  void scan_row_span(std::int32_t dx, const float* row) {
    std::int32_t lo = 0, hi = side_;
    while (lo < hi && row[lo] == 0.0f) ++lo;
    while (hi > lo && row[hi - 1] == 0.0f) --hi;
    if (lo >= hi) lo = hi = 0;  // normalize empty rows to y_lo()
    // Branchless count of true support cells inside the span (interior
    // zeros are possible only for non-convex kernel supports).
    std::int32_t nz = 0;
    for (std::int32_t dy = lo; dy < hi; ++dy) nz += (row[dy] != 0.0f);
    span_lo_[static_cast<std::size_t>(dx)] = lo;
    span_hi_[static_cast<std::size_t>(dx)] = hi;
    span_cells_ += hi - lo;
    nonzero_ += nz;
  }

  util::AlignedArray<float> values_;
  std::size_t capacity_ = 0;
  std::vector<std::int32_t> span_lo_, span_hi_;  ///< relative, per table row
  std::int32_t x_lo_ = 0, y_lo_ = 0, side_ = 0;
  std::int64_t nonzero_ = 0;
  std::int64_t span_cells_ = 0;
};

/// Dense (2Ht+1) float table of temporal kernel values around a point.
/// \p scale (default 1) is folded into every entry — the cached scatter
/// path (scatter_cached) carries the point's scale here instead of in the
/// shared spatial table, so cached tables stay valid across points and
/// passes whose scale differs (weighted events, the streaming engine's
/// +add / -retire alternation).
class TemporalInvariant {
 public:
  template <SeparableKernel K>
  void compute(const K& k, const VoxelMapper& map, const Point& p, double ht,
               std::int32_t Ht, double scale = 1.0) {
    const Voxel c = map.voxel_of(p);
    t_lo_ = c.t - Ht;
    len_ = 2 * Ht + 1;
    const auto n = static_cast<std::size_t>(len_);
    if (n > capacity_) {
      values_ = util::allocate_aligned<float>(n);
      capacity_ = n;
    }
    nonzero_ = 0;
    const double inv_ht = 1.0 / ht;
    for (std::int32_t dt = 0; dt < len_; ++dt) {
      const double w = (map.t_of(t_lo_ + dt) - p.t) * inv_ht;
      const auto val = static_cast<float>(k.temporal(w) * scale);
      values_[static_cast<std::size_t>(dt)] = val;
      if (val != 0.0f) ++nonzero_;
    }
  }

  [[nodiscard]] std::int32_t t_lo() const { return t_lo_; }
  [[nodiscard]] std::int32_t len() const { return len_; }
  [[nodiscard]] std::int64_t nonzero() const { return nonzero_; }

  [[nodiscard]] float at(std::int32_t T) const {
    return values_[static_cast<std::size_t>(T - t_lo_)];
  }
  [[nodiscard]] const float* data() const { return values_.get(); }

 private:
  util::AlignedArray<float> values_;
  std::size_t capacity_ = 0;
  std::int32_t t_lo_ = 0, len_ = 0;
  std::int64_t nonzero_ = 0;
};

/// -------------------------------------------------------------------------
/// Retained scalar reference tables: the pre-SIMD double-precision layout
/// (zero-filled dense square, no spans). scatter_sym_ref accumulates from
/// these; core_equivalence_test pins the SIMD core to them at 1e-5 relative
/// error and bench_scatter_core reports the speedup against them.

class SpatialInvariantRef {
 public:
  template <SeparableKernel K>
  void compute(const K& k, const VoxelMapper& map, const Point& p, double hs,
               std::int32_t Hs, double scale) {
    const Voxel c = map.voxel_of(p);
    x_lo_ = c.x - Hs;
    y_lo_ = c.y - Hs;
    side_ = 2 * Hs + 1;
    values_.assign(static_cast<std::size_t>(side_) * side_, 0.0);
    const double inv_hs = 1.0 / hs;
    for (std::int32_t dx = 0; dx < side_; ++dx) {
      const double u = (map.x_of(x_lo_ + dx) - p.x) * inv_hs;
      for (std::int32_t dy = 0; dy < side_; ++dy) {
        const double v = (map.y_of(y_lo_ + dy) - p.y) * inv_hs;
        values_[static_cast<std::size_t>(dx) * side_ + dy] =
            k.spatial(u, v) * scale;
      }
    }
  }

  [[nodiscard]] std::int32_t x_lo() const { return x_lo_; }
  [[nodiscard]] std::int32_t y_lo() const { return y_lo_; }
  [[nodiscard]] std::int32_t side() const { return side_; }
  [[nodiscard]] const double* row(std::int32_t X) const {
    return values_.data() + static_cast<std::size_t>(X - x_lo_) * side_;
  }

 private:
  std::vector<double> values_;
  std::int32_t x_lo_ = 0, y_lo_ = 0, side_ = 0;
};

class TemporalInvariantRef {
 public:
  template <SeparableKernel K>
  void compute(const K& k, const VoxelMapper& map, const Point& p, double ht,
               std::int32_t Ht) {
    const Voxel c = map.voxel_of(p);
    t_lo_ = c.t - Ht;
    len_ = 2 * Ht + 1;
    values_.assign(static_cast<std::size_t>(len_), 0.0);
    const double inv_ht = 1.0 / ht;
    for (std::int32_t dt = 0; dt < len_; ++dt)
      values_[static_cast<std::size_t>(dt)] =
          k.temporal((map.t_of(t_lo_ + dt) - p.t) * inv_ht);
  }

  [[nodiscard]] std::int32_t t_lo() const { return t_lo_; }
  [[nodiscard]] std::int32_t len() const { return len_; }
  [[nodiscard]] const double* data() const { return values_.data(); }

 private:
  std::vector<double> values_;
  std::int32_t t_lo_ = 0, len_ = 0;
};

}  // namespace stkde::kernels
