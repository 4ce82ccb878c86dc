#pragma once
/// \file scatter.hpp
/// Per-point density scatter kernels shared by the point-based algorithms.
///
/// Every variant writes the contribution of one point into the voxels of its
/// cylinder, clipped to a target extent (the whole grid for the sequential
/// algorithms, a subdomain for PB-SYM-DD, a halo buffer for PB-SYM-PD-REP).
/// The four variants implement the four rows of the paper's §3 engineering
/// ladder:
///   scatter_direct — PB:       ks and kt evaluated per voxel
///   scatter_disk   — PB-DISK:  ks hoisted into a table, kt per voxel
///   scatter_bar    — PB-BAR:   kt hoisted into a table, ks per voxel
///   scatter_sym    — PB-SYM:   both hoisted; inner loop is a pure FMA walk
///
/// SIMD core (docs/SCATTER_CORE.md): scatter_sym/scatter_tables and
/// scatter_disk iterate the spatial disk's per-row nonzero Y-spans — no
/// per-voxel `ks == 0` branch. scatter_tables, the stamp every PB-SYM-based
/// strategy shares, holds a run of up to 32 voxels' temporal row in 4-lane
/// registers and gives each (X, Y) column a fixed sequence of vector
/// updates over its contiguous T-run; scatter_disk's T-innermost loop is a
/// restrict-qualified `#pragma omp simd` walk with a branchless per-voxel
/// kt evaluation (that redundancy is PB-DISK's defining cost). scatter_bar
/// is row-major with T innermost too — its per-column spatial evaluation
/// (PB-BAR's defining cost) multiplies against the contiguous temporal-table
/// run, so its simd license is real. Kernels are concrete template
/// parameters (dispatched once per run by with_kernel), so
/// k.spatial/k.temporal inline into the table fill. scatter_sym_ref
/// retains the pre-SIMD scalar double-precision loop as the correctness and
/// performance baseline.
///
/// Each per-point scatter returns true when the clipped cylinder was
/// non-empty (i.e. the invariant tables were recomputed), so drivers can
/// accumulate lane statistics from the tables without reading stale values.
/// The cached stamp (scatter_cached, looped by stamp_bin) counts its own
/// into the worker's StampScratch.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/detail/common.hpp"
#include "core/result.hpp"
#include "geom/voxel_mapper.hpp"
#include "grid/dense_grid.hpp"
#include "kernels/invariants.hpp"
#include "kernels/kernels.hpp"
#include "kernels/table_cache.hpp"
#include "sched/thread_pool.hpp"
#include "util/failpoint.hpp"
#include "util/memory.hpp"

#if defined(_MSC_VER)
#define STKDE_RESTRICT __restrict
#else
#define STKDE_RESTRICT __restrict__
#endif

namespace stkde::core::detail {

/// Clip the point's cylinder against \p clip (both in absolute voxels).
inline Extent3 clipped_cylinder(const VoxelMapper& map, const Point& p,
                                std::int32_t Hs, std::int32_t Ht,
                                const Extent3& clip) {
  return Extent3::cylinder(map.voxel_of(p), Hs, Ht).intersect(clip);
}

/// PB (Algorithm 2): evaluate both kernel factors for every voxel of the
/// cylinder. \p scale is 1/(n hs^2 ht).
template <kernels::SeparableKernel K, typename T>
bool scatter_direct(DenseGrid3<T>& grid, const Extent3& clip,
                    const VoxelMapper& map, const K& k, const Point& p,
                    double hs, double ht, std::int32_t Hs, std::int32_t Ht,
                    double scale) {
  const Extent3 e = clipped_cylinder(map, p, Hs, Ht, clip);
  if (e.empty()) return false;
  const double inv_hs = 1.0 / hs, inv_ht = 1.0 / ht;
  const std::int32_t len = e.nt();
  for (std::int32_t X = e.xlo; X < e.xhi; ++X) {
    const double u = (map.x_of(X) - p.x) * inv_hs;
    for (std::int32_t Y = e.ylo; Y < e.yhi; ++Y) {
      const double v = (map.y_of(Y) - p.y) * inv_hs;
      T* const row = grid.row(X, Y) + (e.tlo - grid.extent().tlo);
      for (std::int32_t i = 0; i < len; ++i) {
        const double ks = k.spatial(u, v);
        if (ks == 0.0) continue;
        const double w = (map.t_of(e.tlo + i) - p.t) * inv_ht;
        const double kt = k.temporal(w);
        if (kt == 0.0) continue;
        row[i] += static_cast<T>(ks * kt * scale);
      }
    }
  }
  return true;
}

/// PB-DISK: the spatial invariant is computed once into \p ks_tab; the
/// temporal factor is still evaluated per voxel. The Y loop walks the
/// disk's nonzero span for each row instead of testing `ks == 0`.
template <kernels::SeparableKernel K, typename T>
bool scatter_disk(DenseGrid3<T>& grid, const Extent3& clip,
                  const VoxelMapper& map, const K& k, const Point& p,
                  double hs, double ht, std::int32_t Hs, std::int32_t Ht,
                  double scale, kernels::SpatialInvariant& ks_tab) {
  const Extent3 e = clipped_cylinder(map, p, Hs, Ht, clip);
  if (e.empty()) return false;
  ks_tab.compute(k, map, p, hs, Hs, scale);
  const double inv_ht = 1.0 / ht;
  const std::int32_t len = e.nt();
  for (std::int32_t X = e.xlo; X < e.xhi; ++X) {
    const std::int32_t ys = std::max(e.ylo, ks_tab.y_span_lo(X));
    const std::int32_t ye = std::min(e.yhi, ks_tab.y_span_hi(X));
    const float* const ks_row = ks_tab.row(X);
    for (std::int32_t Y = ys; Y < ye; ++Y) {
      const float ks = ks_row[Y - ks_tab.y_lo()];
      T* STKDE_RESTRICT const row = grid.row(X, Y) + (e.tlo - grid.extent().tlo);
      // Branchless: kt is 0 outside the temporal support, and adding 0
      // is exact (the grid never holds -0 — kernel values are >= 0).
#pragma omp simd
      for (std::int32_t i = 0; i < len; ++i) {
        const double w = (map.t_of(e.tlo + i) - p.t) * inv_ht;
        row[i] += static_cast<T>(ks * k.temporal(w));
      }
    }
  }
  return true;
}

/// PB-BAR: the temporal invariant is computed once into \p kt_tab; the
/// spatial factor is *not* hoisted into a table — PB-BAR exploits only the
/// temporal symmetry, which is why the paper reports it giving "a more
/// modest time reduction" than PB-DISK (Table 3).
///
/// The walk is row-major with T innermost: each (X, Y) column multiplies a
/// freshly evaluated k.spatial against the contiguous temporal-table run,
/// so the simd license is real (the old plane-major form was Y-strided and
/// could not vectorize without gather/scatter). PB-BAR's defining
/// redundancy — the per-column spatial evaluation no table would ever
/// repeat — is preserved; only its grid traversal changed.
template <kernels::SeparableKernel K, typename T>
bool scatter_bar(DenseGrid3<T>& grid, const Extent3& clip,
                 const VoxelMapper& map, const K& k, const Point& p, double hs,
                 double ht, std::int32_t Hs, std::int32_t Ht, double scale,
                 kernels::TemporalInvariant& kt_tab) {
  const Extent3 e = clipped_cylinder(map, p, Hs, Ht, clip);
  if (e.empty()) return false;
  kt_tab.compute(k, map, p, ht, Ht);
  const double inv_hs = 1.0 / hs;
  const float* STKDE_RESTRICT const kt_row =
      kt_tab.data() + (e.tlo - kt_tab.t_lo());
  const std::int32_t len = e.nt();
  const std::int64_t t_off = e.tlo - grid.extent().tlo;
  for (std::int32_t X = e.xlo; X < e.xhi; ++X) {
    const double u = (map.x_of(X) - p.x) * inv_hs;
    for (std::int32_t Y = e.ylo; Y < e.yhi; ++Y) {
      const double v = (map.y_of(Y) - p.y) * inv_hs;
      const double ks = k.spatial(u, v) * scale;
      if (ks == 0.0) continue;
      T* STKDE_RESTRICT const row = grid.row(X, Y) + t_off;
      // Branchless over T: kt is 0 outside the temporal support, and
      // adding 0 is exact (kernel values are >= 0, the grid never holds -0).
#pragma omp simd
      for (std::int32_t i = 0; i < len; ++i)
        row[i] += static_cast<T>(ks * kt_row[i]);
    }
  }
  return true;
}

#if defined(__GNUC__)
/// The register-row float stamp below needs GCC/Clang vector extensions;
/// elsewhere every run takes scatter_tables' vectorized loop (the same
/// per-voxel arithmetic).
#define STKDE_VECTOR_STAMP 1
#else
#define STKDE_VECTOR_STAMP 0
#endif

#if STKDE_VECTOR_STAMP
namespace stamp {

using f32x4 = float __attribute__((vector_size(16)));
using f32x2 = float __attribute__((vector_size(8)));
inline constexpr std::ptrdiff_t kLanes = 4;  ///< floats per f32x4

template <typename V>
[[gnu::always_inline]] inline V load(const float* p) {
  V v{};
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <typename V>
[[gnu::always_inline]] inline void store(float* p, V v) {
  __builtin_memcpy(p, &v, sizeof v);
}

/// The temporal row of one stamp, N = 4Q + R floats, loaded into
/// registers once and reused for every column of the stamp: Q 4-lane
/// vectors plus the 2-lane and 1-lane tail.
template <int N>
class RegisterRow {
 public:
  explicit RegisterRow(const float* kt)
      : RegisterRow(kt, std::make_integer_sequence<int, kQ>{}) {}

  /// floor(N/4) 4-lane updates, then the exact tail: one 2-lane update when
  /// N has bit 1, one 1-lane update when it has bit 0. Nothing is read or
  /// written past the run — neighbouring T-splits (DD/PD subdomains) own
  /// those cells.
  [[gnu::always_inline]] void add_to(float* col, float ks) const {
    add_body(col, ks, std::make_integer_sequence<int, kQ>{});
    float* tail = col + kLanes * kQ;
    if constexpr ((kR & 2) != 0) {
      store(tail, load<f32x2>(tail) + ks * kt2_);
      tail += 2;
    }
    if constexpr ((kR & 1) != 0) *tail += ks * kt1_;
  }

 private:
  static constexpr int kQ = N / 4;
  static constexpr int kR = N % 4;

  template <int... J>
  RegisterRow(const float* kt, std::integer_sequence<int, J...>)
      : body_{load<f32x4>(kt + kLanes * J)...},
        kt2_(kR & 2 ? load<f32x2>(kt + kLanes * kQ) : f32x2{}),
        kt1_(kR & 1 ? kt[N - 1] : 0.0f) {}

  template <int... J>
  [[gnu::always_inline]] void add_body(float* col, float ks,
                                       std::integer_sequence<int, J...>) const {
    [[maybe_unused]] const f32x4 s = {ks, ks, ks, ks};  // unused when N < 4
    ((store(col + kLanes * J, load<f32x4>(col + kLanes * J) + s * body_[J])),
     ...);
  }

  f32x4 body_[kQ > 0 ? kQ : 1];
  f32x2 kt2_;
  float kt1_;
};

/// Longest T-run held in registers: eight 4-lane vectors (SSE2 has 16).
inline constexpr std::int32_t kMaxRegisterRun = 32;

/// One stamp of an N-voxel run: the row is loaded once, then the clipped
/// disk's columns are walked by stepping a grid pointer by row_stride().
template <int N>
void stamp_columns(DenseGrid3<float>& grid, const Extent3& e,
                   const kernels::SpatialInvariant& ks_tab,
                   const float* kt_row) {
  const RegisterRow<N> row(kt_row);
  const std::int64_t stride = grid.row_stride();
  const std::int64_t t_off = e.tlo - grid.extent().tlo;
  for (std::int32_t X = e.xlo; X < e.xhi; ++X) {
    const std::int32_t ys = std::max(e.ylo, ks_tab.y_span_lo(X));
    const std::int32_t ye = std::min(e.yhi, ks_tab.y_span_hi(X));
    if (ys >= ye) continue;
    const float* ks = ks_tab.row(X) + (ys - ks_tab.y_lo());
    float* col = grid.row(X, ys) + t_off;
    for (std::int32_t n = ye - ys; n > 0; --n, ++ks, col += stride)
      row.add_to(col, *ks);
  }
}

using StampFn = void (*)(DenseGrid3<float>&, const Extent3&,
                         const kernels::SpatialInvariant&, const float*);

template <int... N>
constexpr std::array<StampFn, sizeof...(N)> register_stamps(
    std::integer_sequence<int, N...>) {
  return {&stamp_columns<N>...};
}

/// Register-row stamps indexed by run length (entry 0 is never called:
/// an empty extent returns before dispatch).
inline constexpr std::array<StampFn, kMaxRegisterRun + 1> kRegisterStamps =
    register_stamps(std::make_integer_sequence<int, kMaxRegisterRun + 1>{});

}  // namespace stamp
#endif  // STKDE_VECTOR_STAMP

/// The accumulation half of scatter_sym and scatter_cached: stamps filled
/// invariant tables over the extent \p e (a cylinder clipped to the grid, a
/// DD/PD subdomain, a tile or a halo buffer).
///
/// The hot loop of the whole library: for each (X, Y) inside the disk span,
/// row[i] += ks * kt[i] over the column's contiguous T-run. Short runs are
/// bound by per-column instructions, not multiply-add throughput, so the
/// float stamp for runs up to 32 (stamp::stamp_columns) loads the temporal
/// row into 4-lane registers once, walks the columns by stepping a pointer
/// by row_stride(), and gives every column a fixed sequence of floor(len/4)
/// 4-lane updates plus exact 2-lane and 1-lane tails. Each voxel still gets
/// the same float multiply and add, so grids are bitwise identical to the
/// plain loop (core_equivalence_test pins this for runs 1..41).
template <typename T>
void scatter_tables(DenseGrid3<T>& grid, const Extent3& e,
                    const kernels::SpatialInvariant& ks_tab,
                    const kernels::TemporalInvariant& kt_tab) {
  if (e.empty()) return;
  const float* STKDE_RESTRICT const kt_row =
      kt_tab.data() + (e.tlo - kt_tab.t_lo());
  const std::int32_t len = e.nt();
#if STKDE_VECTOR_STAMP
  if constexpr (std::is_same_v<T, float>) {
    if (len <= stamp::kMaxRegisterRun) {
      stamp::kRegisterStamps[static_cast<std::size_t>(len)](grid, e, ks_tab,
                                                            kt_row);
      return;
    }
  }
#endif
  // Longer runs, non-float grids and compilers without vector extensions
  // take the compiler-vectorized loop per column: over 32 voxels the
  // multiply-adds, not the per-column overhead, dominate, and a wider-ISA
  // build vectorizes it wider than 4 lanes. Its epilogue is scalar (or
  // masked), so it touches nothing past the run either.
  const std::int64_t t_off = e.tlo - grid.extent().tlo;
  for (std::int32_t X = e.xlo; X < e.xhi; ++X) {
    const std::int32_t ys = std::max(e.ylo, ks_tab.y_span_lo(X));
    const std::int32_t ye = std::min(e.yhi, ks_tab.y_span_hi(X));
    const float* const ks_row = ks_tab.row(X);
    for (std::int32_t Y = ys; Y < ye; ++Y) {
      const float ks = ks_row[Y - ks_tab.y_lo()];
      T* STKDE_RESTRICT const row = grid.row(X, Y) + t_off;
#pragma omp simd
      for (std::int32_t i = 0; i < len; ++i)
        row[i] += static_cast<T>(ks * kt_row[i]);
    }
  }
}

/// PB-SYM (Algorithm 3): both invariants hoisted; the T-innermost loop is a
/// contiguous multiply-add over the temporal table.
template <kernels::SeparableKernel K, typename T>
bool scatter_sym(DenseGrid3<T>& grid, const Extent3& clip,
                 const VoxelMapper& map, const K& k, const Point& p, double hs,
                 double ht, std::int32_t Hs, std::int32_t Ht, double scale,
                 kernels::SpatialInvariant& ks_tab,
                 kernels::TemporalInvariant& kt_tab) {
  const Extent3 e = clipped_cylinder(map, p, Hs, Ht, clip);
  if (e.empty()) return false;
  ks_tab.compute(k, map, p, hs, Hs, scale);
  kt_tab.compute(k, map, p, ht, Ht);
  scatter_tables(grid, e, ks_tab, kt_tab);
  return true;
}

/// Table-cache and lane statistics of cached stamps (Result::diag's
/// table_lookups, table_fills, table_cells, span_cells, table_nonzero).
/// Every stamp counts a lookup; a fill also counts its table's lanes, so
/// the lane sums cover each computed table once.
struct LaneStats {
  std::int64_t lookups = 0, fills = 0, cells = 0, span = 0, nonzero = 0;

  LaneStats& operator+=(const LaneStats& o) {
    lookups += o.lookups;
    fills += o.fills;
    cells += o.cells;
    span += o.span;
    nonzero += o.nonzero;
    return *this;
  }
};

/// One worker's scratch for cached stamps: a spatial-table cache capped for
/// the run's widest bandwidth, the per-point temporal table, and the
/// worker's counts. Scratch outlives tasks, so a worker keeps its tables
/// warm from one task, wave or (for the streaming engine) batch to the
/// next. Aligned to a cache line so neighbouring workers' scratch, written
/// every stamp, never shares one.
struct alignas(util::kSimdAlign) StampScratch {
  explicit StampScratch(std::int32_t Hs) : cache(Hs) {}

  kernels::SpatialTableCache cache;
  kernels::TemporalInvariant kt;
  LaneStats lanes;
};

/// One StampScratch per pool worker, made once per run (once per
/// IncrementalEstimator), indexed by ThreadPool::worker_index(): no task
/// allocates a cache or a temporal table, and no two workers share one.
class StampScratches {
 public:
  /// \p workers slots (at least one) with caches capped for the widest
  /// bandwidth \p Hs (voxels).
  StampScratches(std::int32_t Hs, int workers) {
    const int n = std::max(1, workers);
    slots_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) slots_.emplace_back(Hs);
  }
  // Tasks on the pool's workers hold its address.
  StampScratches(const StampScratches&) = delete;
  StampScratches& operator=(const StampScratches&) = delete;

  /// The calling worker's scratch: slot \p pool->worker_index(), or slot 0
  /// when \p pool is null (the serial walks). Throws std::logic_error off
  /// the pool's workers or beyond the slots.
  [[nodiscard]] StampScratch& of(const sched::ThreadPool* pool) {
    const int w = pool != nullptr ? pool->worker_index() : 0;
    if (w < 0 || w >= static_cast<int>(slots_.size()))
      throw std::logic_error("StampScratches: caller has no scratch slot");
    return slots_[static_cast<std::size_t>(w)];
  }

  /// Counts summed over every worker since construction. Read only while
  /// no task stamps (after ThreadPool::parallel_for or DagScheduler::run
  /// returned, which orders the workers' writes before this read).
  [[nodiscard]] LaneStats lanes() const {
    LaneStats t;
    for (const StampScratch& s : slots_) t += s.lanes;
    return t;
  }

  /// Table slots held by the workers' caches, summed; read as lanes().
  [[nodiscard]] std::int64_t table_slots() const {
    std::int64_t n = 0;
    for (const StampScratch& s : slots_)
      n += static_cast<std::int64_t>(s.cache.slots());
    return n;
  }

  /// lanes() and table_slots() into a run's diagnostics.
  void store(Diagnostics& diag) const {
    const LaneStats t = lanes();
    diag.table_lookups = t.lookups;
    diag.table_fills = t.fills;
    diag.table_cells = t.cells;
    diag.span_cells = t.span;
    diag.table_nonzero = t.nonzero;
    diag.table_slots = table_slots();
  }

 private:
  std::vector<StampScratch> slots_;
};

/// Cache-served scatter_sym of point pts[i] with its own bandwidth and
/// scale from \p s: the spatial table comes from the scratch's cache
/// (keyed on the point's sub-voxel offset and bandwidth, rebased onto this
/// cylinder) instead of a per-point fill; the temporal table is recomputed
/// as usual. Counts the stamp into \p scratch.lanes.
///
/// Unlike scatter_sym, the point's scale rides in the *temporal* table (it
/// is per-point scratch) and cached spatial tables are filled unscaled — so
/// a persistent cache stays warm across points and passes whose scale
/// differs, notably weighted events and the streaming engine's +scale adds
/// alternating with -scale retirements.
template <kernels::SeparableKernel K, typename T>
void scatter_cached(DenseGrid3<T>& grid, const Extent3& clip,
                    const RunSetup& s, const K& k, const PointSet& pts,
                    std::uint32_t i, StampScratch& scratch) {
  const Point& p = pts[i];
  const std::int32_t Hs = s.Hs_of(i);
  const Extent3 e = clipped_cylinder(s.map, p, Hs, s.Ht, clip);
  if (e.empty()) return;
  const auto lk = scratch.cache.lookup(k, s.map, p, s.hs_of(i), Hs);
  scratch.kt.compute(k, s.map, p, s.ht, s.Ht, s.scale_of(i));
  scatter_tables(grid, e, lk.table, scratch.kt);
  LaneStats& lanes = scratch.lanes;
  ++lanes.lookups;
  if (!lk.filled) return;
  ++lanes.fills;
  lanes.cells += lk.table.cells();
  lanes.span += lk.table.span_cells();
  lanes.nonzero += lk.table.nonzero();
}

/// The one cached stamp loop, under DR, DD, the PD family, PB-TILE's walks
/// and so streaming ingest: stamps pts[i] for every i of \p bin (a bin
/// slice, in scatter order) into \p target, clipped to \p clip, through
/// the calling worker's scratch.
template <kernels::SeparableKernel K, typename T>
void stamp_bin(DenseGrid3<T>& target, const Extent3& clip, const RunSetup& s,
               const K& k, const PointSet& pts,
               std::span<const std::uint32_t> bin, StampScratch& scratch) {
  // Chaos site: a fault inside a worker task, before its first write.
  STKDE_FAILPOINT("stamp.task");
  for (const std::uint32_t i : bin)
    scatter_cached(target, clip, s, k, pts, i, scratch);
}

/// Retained scalar reference (the pre-SIMD scatter_sym): double-precision
/// zero-filled tables, per-voxel `ks == 0` branch, scalar accumulation.
/// core_equivalence_test pins the SIMD core to this at 1e-5 relative error;
/// bench_scatter_core measures the speedup against it.
template <kernels::SeparableKernel K, typename T>
bool scatter_sym_ref(DenseGrid3<T>& grid, const Extent3& clip,
                     const VoxelMapper& map, const K& k, const Point& p,
                     double hs, double ht, std::int32_t Hs, std::int32_t Ht,
                     double scale, kernels::SpatialInvariantRef& ks_tab,
                     kernels::TemporalInvariantRef& kt_tab) {
  const Extent3 e = clipped_cylinder(map, p, Hs, Ht, clip);
  if (e.empty()) return false;
  ks_tab.compute(k, map, p, hs, Hs, scale);
  kt_tab.compute(k, map, p, ht, Ht);
  const double* const kt_row = kt_tab.data() + (e.tlo - kt_tab.t_lo());
  const std::int32_t len = e.nt();
  for (std::int32_t X = e.xlo; X < e.xhi; ++X) {
    const double* const ks_row = ks_tab.row(X) + (e.ylo - ks_tab.y_lo());
    for (std::int32_t Y = e.ylo; Y < e.yhi; ++Y) {
      const double ks = ks_row[Y - e.ylo];
      if (ks == 0.0) continue;
      T* const row = grid.row(X, Y) + (e.tlo - grid.extent().tlo);
      for (std::int32_t i = 0; i < len; ++i)
        row[i] += static_cast<T>(ks * kt_row[i]);
    }
  }
  return true;
}

}  // namespace stkde::core::detail
