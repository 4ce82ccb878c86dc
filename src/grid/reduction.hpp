#pragma once
/// \file reduction.hpp
/// Grid reductions: summing per-thread replicas into the global grid
/// (PB-SYM-DR's third phase) and adding a subdomain-halo buffer back into
/// the global grid (PB-SYM-PD-REP's reduce tasks).

#include <vector>

#include "grid/dense_grid.hpp"

namespace stkde {

/// dst += sum(replicas), parallelized over one flat chunk per worker of
/// \p pool. All replicas must share dst's extent.
template <typename T>
void reduce_replicas(DenseGrid3<T>& dst,
                     const std::vector<DenseGrid3<T>>& replicas,
                     sched::ThreadPool& pool);

/// dst(region) += src(region), where region = src.extent() clipped to
/// dst.extent(). Single-threaded: the caller (a DAG reduce task) owns the
/// region exclusively by construction.
template <typename T>
void accumulate_buffer(DenseGrid3<T>& dst, const DenseGrid3<T>& src);

extern template void reduce_replicas<float>(
    DenseGrid3<float>&, const std::vector<DenseGrid3<float>>&,
    sched::ThreadPool&);
extern template void reduce_replicas<double>(
    DenseGrid3<double>&, const std::vector<DenseGrid3<double>>&,
    sched::ThreadPool&);
extern template void accumulate_buffer<float>(DenseGrid3<float>&,
                                              const DenseGrid3<float>&);
extern template void accumulate_buffer<double>(DenseGrid3<double>&,
                                               const DenseGrid3<double>&);

}  // namespace stkde
