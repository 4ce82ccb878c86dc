#pragma once
/// \file result.hpp
/// Estimation results: the density grid, per-phase timings (matching the
/// paper's breakdowns), and strategy diagnostics.

#include <cstdint>
#include <string>
#include <vector>

#include "grid/dense_grid.hpp"
#include "util/timer.hpp"

namespace stkde {

/// Canonical phase names used by every algorithm.
namespace phase {
inline constexpr const char* kInit = "init";       ///< grid memory init
inline constexpr const char* kBin = "bin";         ///< point binning
inline constexpr const char* kPlan = "plan";       ///< coloring/replication
inline constexpr const char* kCompute = "compute"; ///< kernel accumulation
inline constexpr const char* kReduce = "reduce";   ///< replica reduction
}  // namespace phase

/// Strategy diagnostics; algorithms fill the fields that apply.
struct Diagnostics {
  std::string algorithm;      ///< paper-style name
  std::string decomposition;  ///< actual AxBxC after any clamping ("" = none)
  std::int64_t subdomains = 0;
  double replication_factor = 1.0;  ///< DD bin entries / n; REP task copies
  std::int32_t num_colors = 0;      ///< coloring size (PD family)
  double total_work = 0.0;          ///< T1 from task loads (PD family)
  double critical_path = 0.0;       ///< Tinf from task loads (PD family)
  double load_imbalance = 1.0;      ///< max/mean of per-task loads
  std::uint64_t extra_bytes = 0;    ///< replica/buffer memory beyond the grid

  /// Scatter-core lane statistics (docs/SCATTER_CORE.md), summed over every
  /// spatial-invariant table the run filled (DD/PD refills per (point,
  /// subdomain) pair, so these also expose replication overhead, Fig. 9):
  std::int64_t table_cells = 0;    ///< (2Hs+1)^2 cells filled, all tables
  std::int64_t span_cells = 0;     ///< cells covered by per-row Y-spans
  std::int64_t table_nonzero = 0;  ///< cells strictly inside the disk

  /// Invariant-table cache counters (PB-TILE, the cached DD/PD family, and
  /// the streaming batch path; 0/0 for strategies that fill tables
  /// directly).
  std::int64_t table_lookups = 0;  ///< cache probes (one per point-tile stamp)
  std::int64_t table_fills = 0;    ///< probes that had to compute a table
  std::int64_t table_slots = 0;    ///< slots the caches ended with, all workers

  /// PB-TILE traversal schedule ("serial" or "parity-wave"; empty for the
  /// other strategies) and the worker count it ran with.
  std::string tile_schedule;
  int tile_threads = 0;

  /// Fraction of table lookups served from the cache without a fill.
  [[nodiscard]] double table_cache_hit_rate() const {
    return table_lookups > 0
               ? 1.0 - static_cast<double>(table_fills) /
                           static_cast<double>(table_lookups)
               : 0.0;
  }

  /// Fraction of full-square table cells the span layout never touches
  /// (~1-π/4 for a centered disk); 0 when no tables were filled.
  [[nodiscard]] double skipped_lane_fraction() const {
    return table_cells > 0
               ? 1.0 - static_cast<double>(span_cells) /
                           static_cast<double>(table_cells)
               : 0.0;
  }
  /// Fraction of span-covered lanes that still multiply a zero (wasted
  /// FMAs); 0 for convex kernel supports, where spans are exact.
  [[nodiscard]] double wasted_lane_fraction() const {
    return span_cells > 0
               ? 1.0 - static_cast<double>(table_nonzero) /
                           static_cast<double>(span_cells)
               : 0.0;
  }

  /// Measured per-task compute seconds (PD/DD family; indexed by flat
  /// subdomain id, or by expanded task id for REP). Feeds the speedup
  /// simulator in the bench harness.
  std::vector<double> task_seconds;
};

/// A completed STKDE run.
struct Result {
  DensityGrid grid;
  util::PhaseTimer phases;
  Diagnostics diag;

  /// Total wall seconds across phases (the paper's reported time; I/O free).
  [[nodiscard]] double total_seconds() const { return phases.total(); }
};

}  // namespace stkde
