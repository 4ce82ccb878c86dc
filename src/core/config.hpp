#pragma once
/// \file config.hpp
/// Algorithm selection and run parameters for the STKDE estimator.

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "partition/decomposition.hpp"

namespace stkde {

/// The algorithms of the paper, in presentation order.
enum class Algorithm {
  kVB,             ///< gold-standard voxel-based (Alg. 1)
  kVBDec,          ///< voxel-based with bandwidth-sized point blocks
  kPB,             ///< point-based (Alg. 2)
  kPBDisk,         ///< PB + hoisted spatial invariant
  kPBBar,          ///< PB + hoisted temporal invariant
  kPBSym,          ///< PB + both invariants (Alg. 3)
  kPBTile,         ///< PB-SYM + tile-major Morton traversal + table cache
  kPBSymDR,        ///< parallel, domain replication (Alg. 4)
  kPBSymDD,        ///< parallel, domain decomposition (Alg. 5)
  kPBSymPD,        ///< parallel, point decomposition, 8 parity phases (Alg. 6)
  kPBSymPDSched,   ///< PD + load-aware coloring + DAG list scheduling
  kPBSymPDRep,     ///< PD + critical-path replication (natural coloring)
  kPBSymPDSchedRep ///< PD + load-aware coloring + replication (Fig. 15)
};

/// All algorithms, in enum order.
[[nodiscard]] const std::vector<Algorithm>& all_algorithms();

/// Paper-style name, e.g. "PB-SYM-PD-SCHED".
[[nodiscard]] std::string to_string(Algorithm a);

/// Inverse of to_string(); throws std::invalid_argument.
[[nodiscard]] Algorithm algorithm_by_name(const std::string& name);

/// True for the multi-threaded strategies (the PB-SYM-* family).
[[nodiscard]] bool is_parallel(Algorithm a);

/// Tile-engine knobs (docs/SCATTER_CORE.md "The tile-major engine").
/// tile_bytes/threads govern Algorithm::kPBTile (whose result grid always
/// has 64-byte-padded T-rows, so every SIMD row walk starts cache-line
/// aligned); the streaming engine plans every ingest batch from the same
/// tile_bytes (its thread count is StreamConfig::threads). tile_bytes sizes
/// the serial walk's tiles; the parallel schedule is not a knob:
/// plan_tile_schedule runs parity waves on the finest 2Hs-safe tiling at
/// every thread count above one. Nor is the table cache: each pool worker
/// of a PB-TILE, DR, DD or PD-family run (and of a streaming engine) gets
/// one exact-keyed cache of kernels::SpatialTableCache::kBudgetBytes.
struct TileParams {
  /// Grid bytes a serial-walk tile may map onto — the working set that
  /// should stay L2-resident while its cylinders stamp.
  std::int64_t tile_bytes = std::int64_t{1} << 20;

  /// Worker threads for the tile walk: 1 = the serial engine (default),
  /// 0 = inherit Params::threads resolution, N > 1 = parallel waves on the
  /// repo's sched::ThreadPool.
  int threads = 1;
};

/// Run parameters. hs/ht are in domain units; everything else has usable
/// defaults.
struct Params {
  double hs = 1.0;  ///< spatial bandwidth (domain units)
  double ht = 1.0;  ///< temporal bandwidth (domain units)
  kernels::KernelVariant kernel = kernels::EpanechnikovKernel{};
  int threads = 0;  ///< worker count; 0 = hardware concurrency

  /// Decomposition request for the DD/PD family (paper sweeps 1^3..64^3).
  DecompRequest decomp{8, 8, 8};

  /// Tile-engine knobs for the kPBTile strategy and streaming ingest.
  TileParams tile{};

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;

  /// threads, resolved (>=1).
  [[nodiscard]] int resolved_threads() const;
};

}  // namespace stkde
