#pragma once
/// \file table_cache.hpp
/// Spatial invariant-table cache (the cached stamp's fill eliminator,
/// docs/SCATTER_CORE.md).
///
/// The spatial table of a point depends only on its *fractional offset*
/// (fx, fy) inside its voxel (SpatialInvariant::compute_offset), so points
/// that share an offset can share one table — they only differ in where the
/// table is stamped, which rebase() fixes up in O(1). Real event data is
/// recorded at fixed source resolution (days, stations, grid cells), so
/// offsets repeat heavily; the cache turns the O(Hs²) per-point table fill
/// into a hash probe for every repeat.
///
/// The key is the bit pattern of (fx, fy), so a hit reuses a
/// bitwise-identical table: caching never changes a stamped value.
///
/// Storage is a direct-mapped slot array (slot = hash(key) mod slots; a
/// colliding miss overwrites) that starts at kMinSlots and grows only when
/// a larger one would have hit. Each slot remembers the key it last
/// evicted, as a 64-bit hash (the ghost entry of ARC, Megiddo & Modha,
/// FAST 2003); a miss on that key is a conflict miss, so the array doubles,
/// moving every held table with its storage. The last step lands on the
/// cap, kBudgetBytes over one table's bytes clamped to [16, 65 536], so
/// memory stays bounded by the byte budget. A feed whose offsets never
/// recur (continuous coordinates, per-point bandwidths) keeps 16 slots; a
/// lattice feed grows until its keys stop colliding. Lookups are O(1),
/// and a cache allocates only when a slot first fills or the array grows.
///
/// A cache fills its tables unscaled, for the bandwidth each lookup names,
/// so its entries never go stale: a slot hits only when its stored hs bit
/// pattern matches as well as its offset key (adaptive runs give points
/// different bandwidths). The slot index is the offset hash alone, so a
/// fixed-bandwidth run fills and hits as if hs were not keyed. It is
/// single-owner scratch (lookup() rebases a stored table and returns a
/// reference to it): the parallel strategies give each pool worker its own
/// cache inside a core::detail::StampScratch.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geom/voxel_mapper.hpp"
#include "kernels/invariants.hpp"
#include "kernels/kernels.hpp"

namespace stkde::kernels {

/// Bit-pattern key for a fractional offset. `+ 0.0` collapses
/// -0.0 onto +0.0 before taking the bits: voxel-boundary points can land on
/// either zero, and the two patterns would key bitwise-identical tables into
/// different slots (the PR 5 aliasing bug). Every float→integer keying site
/// must route through this helper or spell the idiom inline — the float-key
/// lint check (docs/LINT.md) enforces it.
[[nodiscard]] inline std::uint64_t normalize_key(double v) {
  return std::bit_cast<std::uint64_t>(v + 0.0);
}

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

  /// Byte budget of one cache's table storage; it caps the slot count.
  static constexpr std::uint64_t kBudgetBytes = std::uint64_t{8} << 20;
  /// Slots of a new cache.
  static constexpr std::size_t kMinSlots = 16;

  /// \p Hs, the widest bandwidth any lookup names (voxels), sets the cap:
  /// each slot holds one (2Hs+1)² table, and the cache grows to at most
  /// kBudgetBytes / table bytes of them, clamped to [16, 65 536].
  explicit SpatialTableCache(std::int32_t Hs)
      : max_slots_(max_slots(Hs)), slots_(kMinSlots) {}

  /// Slots held now.
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }

  /// The unscaled spatial table of \p p for bandwidth \p hs (\p Hs
  /// voxels), from its slot or filled into it.
  template <SeparableKernel K>
  Lookup lookup(const K& k, const VoxelMapper& map, const Point& p, double hs,
                std::int32_t Hs) {
    const DomainSpec& d = map.spec();
    const Voxel c = map.voxel_of(p);
    const double fx = (p.x - d.x0) / d.sres - c.x;
    const double fy = (p.y - d.y0) / d.sres - c.y;
    const std::uint64_t kx = normalize_key(fx);
    const std::uint64_t ky = normalize_key(fy);
    const std::uint64_t kh = normalize_key(hs);
    const std::uint64_t h = mix(kx, ky);
    Slot* s = &slot_of(h);

    const bool hit = s->used && s->kx == kx && s->ky == ky && s->kh == kh;
    if (!hit) {
      if (s->ghost == ghost_of(h, kh) && slots_.size() < max_slots_) {
        grow();
        s = &slot_of(h);
      }
      // Only a key at another offset can leave this slot in a larger array.
      if (s->used && (s->kx != kx || s->ky != ky))
        s->ghost = ghost_of(mix(s->kx, s->ky), s->kh);
      s->table.compute_offset(k, fx, fy, d.sres, hs, Hs, 1.0);
      s->kx = kx;
      s->ky = ky;
      s->kh = kh;
      s->used = true;
    }
    s->table.rebase(c.x - Hs, c.y - Hs);
    return Lookup{s->table, !hit};
  }

 private:
  struct Slot {
    SpatialInvariant table;
    std::uint64_t kx = 0, ky = 0, kh = 0;
    std::uint64_t ghost = 0;  ///< ghost_of the key this slot last evicted
    bool used = false;
  };

  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << 16;

  [[nodiscard]] static std::size_t max_slots(std::int32_t Hs) {
    const std::uint64_t side = 2 * static_cast<std::uint64_t>(Hs) + 1;
    const std::uint64_t table_bytes = side * side * sizeof(float) + 64;
    return static_cast<std::size_t>(
        std::clamp(kBudgetBytes / table_bytes, std::uint64_t{kMinSlots},
                   kMaxSlots));
  }

  [[nodiscard]] Slot& slot_of(std::uint64_t h) {
    return slots_[static_cast<std::size_t>(h % slots_.size())];
  }

  /// Double the slot array (the last step stops at max_slots_), keeping
  /// each held table in slot mix(kx, ky) % slots. Doubling never lands two
  /// held tables on one slot; the last step can, and keeps the first.
  /// Ghosts are dropped: a grow consumes the evidence that caused it.
  void grow() {
    const std::size_t n = std::min(2 * slots_.size(), max_slots_);
    std::vector<Slot> next(n);
    for (Slot& s : slots_) {
      if (!s.used) continue;
      Slot& to = next[static_cast<std::size_t>(mix(s.kx, s.ky) % n)];
      if (to.used) continue;
      to = std::move(s);
      to.ghost = 0;
    }
    slots_ = std::move(next);
  }

  /// splitmix64 finalizer.
  [[nodiscard]] static std::uint64_t mix1(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Pair hash of the two key words. The first word is avalanched *before*
  /// the words are combined, so offsets that differ in a few bits of one
  /// coordinate still spread over the slots.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    return mix1(mix1(a) ^ b);
  }

  /// Ghost hash of the key (offset hash \p h, bandwidth bits \p kh).
  [[nodiscard]] static std::uint64_t ghost_of(std::uint64_t h,
                                              std::uint64_t kh) {
    return mix1(h ^ kh);
  }

  std::size_t max_slots_;
  std::vector<Slot> slots_;
};

}  // namespace stkde::kernels
