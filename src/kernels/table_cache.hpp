#pragma once
/// \file table_cache.hpp
/// Quantized spatial invariant-table cache (the PB-TILE engine's fill
/// eliminator, docs/SCATTER_CORE.md).
///
/// The spatial table of a point depends only on its *fractional offset*
/// (fx, fy) inside its voxel (SpatialInvariant::compute_offset), so points
/// that share an offset can share one table — they only differ in where the
/// table is stamped, which rebase() fixes up in O(1). Real event data is
/// recorded at fixed source resolution (days, stations, grid cells), so
/// offsets repeat heavily; the cache turns the O(Hs²) per-point table fill
/// into a hash probe for every repeat.
///
/// Two keying modes:
///  - exact (quant == 0): the key is the bit pattern of (fx, fy); a hit
///    reuses a bitwise-identical table. No approximation — this is the
///    verification mode, and the profitable mode whenever data snaps to any
///    sub-voxel lattice.
///  - quantized (quant == Q > 0): offsets are binned to a QxQ sub-voxel
///    lattice and a bin is represented by the offsets of the *first* point
///    that lands in it. Offset error < 1/Q voxel per axis, i.e. a kernel
///    argument perturbation < sres·√2/(Q·hs). Exact whenever the data lies
///    on an S-lattice of sub-voxel centers with S ≤ Q (then no two distinct
///    lattice offsets share a bin). Offsets outside [0, 1] (points whose
///    voxel was clamped into the grid) bypass the lattice through a private
///    exact-filled scratch entry, so the bound never degrades.
///
/// Storage is a direct-mapped slot array (slot = hash(key) mod slots; a
/// colliding miss overwrites), so memory is bounded by the byte budget and
/// lookups are O(1) with zero allocator traffic after warm-up.
///
/// A cache fills its tables unscaled, for the bandwidth each lookup names,
/// so its entries never go stale: a slot hits only when its stored hs bit
/// pattern matches as well as its offset key (adaptive runs give points
/// different bandwidths). The slot index is the offset hash alone, so a
/// fixed-bandwidth run fills and hits as if hs were not keyed. It is
/// single-owner scratch (lookup() rebases a stored table and returns a
/// reference to it): the parallel strategies give each pool worker its own
/// cache inside a core::detail::StampScratch.

#include <bit>
#include <cstdint>
#include <vector>

#include "geom/voxel_mapper.hpp"
#include "kernels/invariants.hpp"
#include "kernels/kernels.hpp"

namespace stkde::kernels {

/// Bit-pattern key for an exact-mode fractional offset. `+ 0.0` collapses
/// -0.0 onto +0.0 before taking the bits: voxel-boundary points can land on
/// either zero, and the two patterns would key bitwise-identical tables into
/// different slots (the PR 5 aliasing bug). Every float→integer keying site
/// must route through this helper or spell the idiom inline — the float-key
/// lint check (docs/LINT.md) enforces it.
[[nodiscard]] inline std::uint64_t normalize_key(double v) {
  return std::bit_cast<std::uint64_t>(v + 0.0);
}

/// Cache configuration; defaults are the PB-TILE defaults.
struct TableCacheConfig {
  /// 0 = exact offset keys; Q > 0 = QxQ sub-voxel lattice bins.
  std::int32_t quant = 0;
  /// Soft budget for cached table storage; determines the slot count.
  std::uint64_t max_bytes = std::uint64_t{8} << 20;
};

class SpatialTableCache {
 public:
  /// A resolved lookup: the table is rebased to the requesting point's
  /// cylinder and valid until the next lookup() call. `filled` is true when
  /// this lookup recomputed the table (miss), so callers can accumulate
  /// fill-side lane statistics without double counting.
  struct Lookup {
    const SpatialInvariant& table;
    bool filled;
  };

  /// \p Hs, the widest bandwidth any lookup names (voxels), sizes the
  /// slots: each holds one (2Hs+1)² table.
  SpatialTableCache(const TableCacheConfig& cfg, std::int32_t Hs)
      : quant_(cfg.quant) {
    const std::uint64_t side = 2 * static_cast<std::uint64_t>(Hs) + 1;
    const std::uint64_t table_bytes = side * side * sizeof(float) + 64;
    std::uint64_t slots = cfg.max_bytes / (table_bytes == 0 ? 1 : table_bytes);
    if (slots < kMinSlots) slots = kMinSlots;
    if (slots > kMaxSlots) slots = kMaxSlots;
    // In quantized mode at most Q² keys exist; extra slots are dead weight.
    if (quant_ > 0) {
      const std::uint64_t keys =
          static_cast<std::uint64_t>(quant_) * static_cast<std::uint64_t>(quant_);
      if (slots > keys) slots = keys;
    }
    slots_.resize(static_cast<std::size_t>(slots));
  }

  /// The unscaled spatial table of \p p for bandwidth \p hs (\p Hs
  /// voxels), from its slot or filled into it.
  template <SeparableKernel K>
  Lookup lookup(const K& k, const VoxelMapper& map, const Point& p, double hs,
                std::int32_t Hs) {
    const DomainSpec& d = map.spec();
    const Voxel c = map.voxel_of(p);
    const double fx = (p.x - d.x0) / d.sres - c.x;
    const double fy = (p.y - d.y0) / d.sres - c.y;
    const std::uint64_t kh = normalize_key(hs);

    Slot* s = nullptr;
    std::uint64_t kx = 0, ky = 0;
    if (quant_ > 0 && fx >= 0.0 && fx <= 1.0 && fy >= 0.0 && fy <= 1.0) {
      kx = bin_of(fx);
      ky = bin_of(fy);
      const std::uint64_t q = static_cast<std::uint64_t>(quant_);
      // With one slot per lattice bin the flat index is a perfect hash;
      // when the byte budget caps slots below Q² it must go through mix()
      // like the exact path — a plain `flat % slots` folds whole residue
      // classes of bins onto one slot, and those bins thrash forever.
      const std::size_t idx =
          slots_.size() == q * q
              ? static_cast<std::size_t>(kx * q + ky)
              : static_cast<std::size_t>(mix(kx, ky) % slots_.size());
      s = &slots_[idx];
    } else if (quant_ == 0) {
      kx = normalize_key(fx);
      ky = normalize_key(fy);
      s = &slots_[static_cast<std::size_t>(mix(kx, ky) % slots_.size())];
    } else {
      // Quantized mode, out-of-lattice offset (clamped voxel): exact fill
      // into the scratch slot so the 1/Q error bound holds unconditionally.
      s = &scratch_;
      s->used = false;
    }

    const bool hit = s->used && s->kx == kx && s->ky == ky && s->kh == kh;
    if (!hit) {
      s->table.compute_offset(k, fx, fy, d.sres, hs, Hs, 1.0);
      s->kx = kx;
      s->ky = ky;
      s->kh = kh;
      s->used = true;
    }
    s->table.rebase(c.x - Hs, c.y - Hs);
    return Lookup{s->table, !hit};
  }

  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] std::int32_t quant() const { return quant_; }

 private:
  struct Slot {
    SpatialInvariant table;
    std::uint64_t kx = 0, ky = 0, kh = 0;
    bool used = false;
  };

  static constexpr std::uint64_t kMinSlots = 16;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << 16;

  [[nodiscard]] std::uint64_t bin_of(double f) const {
    auto b = static_cast<std::int64_t>(f * quant_);
    if (b < 0) b = 0;
    if (b >= quant_) b = quant_ - 1;  // f == 1.0 (max-border points)
    return static_cast<std::uint64_t>(b);
  }

  /// splitmix64 finalizer.
  [[nodiscard]] static std::uint64_t mix1(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Pair hash of the two key words. The first word is avalanched *before*
  /// the words are combined: a linear combine like `a + (b << 1)` collides
  /// structurally on small integers (quantized bins — kx + 2ky takes only
  /// O(Q) values over the Q² lattice), which defeated the capped-budget
  /// slot mapping.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    return mix1(mix1(a) ^ b);
  }

  std::int32_t quant_;
  std::vector<Slot> slots_;
  Slot scratch_;  ///< exact-fill path for out-of-lattice offsets
};

}  // namespace stkde::kernels
