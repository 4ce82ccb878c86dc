#pragma once
/// \file algorithms.hpp
/// Entry points for the paper's 12 algorithms and PB-TILE. Most users
/// should go through the Estimator facade (estimator.hpp), or run_weighted
/// and run_adaptive; these free functions are the per-algorithm entry points,
/// exposed so benches and tests can target a strategy directly.
///
/// All algorithms compute the same estimate
///   f(x,y,t) = sum_i c_i ks((x-xi)/h_i,(y-yi)/h_i) kt((t-ti)/ht)
/// sampled at voxel centers, with the per-point bandwidths h_i and scales
/// c_i of a detail::RunSetup (fixed bandwidth: h_i = hs, c_i =
/// 1/(n hs^2 ht)); they differ only in work, memory, and parallelization
/// (tests/core_equivalence_test.cpp checks bitwise-tolerant equality of all
/// of them against VB). They expect validated Params; run() checks.

#include "core/config.hpp"
#include "core/detail/common.hpp"
#include "core/result.hpp"
#include "geom/domain.hpp"
#include "geom/point.hpp"

namespace stkde::core {

/// Run \p a on \p pts with the bandwidths and scales of \p s — the one
/// dispatch over Algorithm, under Estimator::run, run_weighted and
/// run_adaptive. Throws std::invalid_argument on bad \p p.
[[nodiscard]] Result run(Algorithm a, const PointSet& pts,
                         const detail::RunSetup& s, const Params& p);

/// Gold standard voxel-based algorithm (paper Algorithm 1).
/// Theta(Gx Gy Gt n) time — only viable on small instances.
[[nodiscard]] Result run_vb(const PointSet& pts, const detail::RunSetup& s,
                            const Params& p);

/// VB with bandwidth-sized point blocks: each voxel only tests points from
/// its 3x3x3 neighborhood of blocks (paper §6.2).
[[nodiscard]] Result run_vb_dec(const PointSet& pts, const detail::RunSetup& s,
                                const Params& p);

/// Point-based algorithm (Algorithm 2): Theta(Gx Gy Gt + n Hs^2 Ht).
[[nodiscard]] Result run_pb(const PointSet& pts, const detail::RunSetup& s,
                            const Params& p);

/// PB with the spatial invariant hoisted (§3.2, PB-DISK).
[[nodiscard]] Result run_pb_disk(const PointSet& pts, const detail::RunSetup& s,
                                 const Params& p);

/// PB with the temporal invariant hoisted (§3.2, PB-BAR).
[[nodiscard]] Result run_pb_bar(const PointSet& pts, const detail::RunSetup& s,
                                const Params& p);

/// PB with both invariants hoisted (Algorithm 3, PB-SYM).
[[nodiscard]] Result run_pb_sym(const PointSet& pts, const detail::RunSetup& s,
                                const Params& p);

/// PB-SYM restructured for the memory hierarchy (PB-TILE,
/// docs/SCATTER_CORE.md): Morton-sorted points, tile-major grid traversal,
/// and a sub-voxel-offset invariant-table cache (Params::tile knobs).
[[nodiscard]] Result run_pb_tile(const PointSet& pts, const detail::RunSetup& s,
                                 const Params& p);

/// Domain replication (Algorithm 4): per-thread grid copies + reduction.
/// Throws util::MemoryBudgetExceeded when P grid replicas exceed memory.
[[nodiscard]] Result run_pb_sym_dr(const PointSet& pts,
                                   const detail::RunSetup& s, const Params& p);

/// Domain decomposition (Algorithm 5): subdomains processed independently,
/// boundary points replicated into every intersected subdomain.
[[nodiscard]] Result run_pb_sym_dd(const PointSet& pts,
                                   const detail::RunSetup& s, const Params& p);

/// Point decomposition (Algorithm 6): owner binning + 8 parity phases.
[[nodiscard]] Result run_pb_sym_pd(const PointSet& pts,
                                   const detail::RunSetup& s, const Params& p);

/// The colored-DAG strategies of §5.2, one entry point for \p a in
/// {kPBSymPDSched, kPBSymPDRep, kPBSymPDSchedRep}: PD's subdomains as a
/// colored conflict DAG run by a list scheduler. SCHED colors in
/// load-descending order, REP replicates critical-path subdomains into halo
/// buffers (plan_replication); SCHED-REP, reported in Fig. 15, does both.
[[nodiscard]] Result run_pb_sym_pd_dag(const PointSet& pts,
                                       const detail::RunSetup& s,
                                       const Params& p, Algorithm a);

}  // namespace stkde::core
