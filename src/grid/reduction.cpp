#include "grid/reduction.hpp"

#include <algorithm>
#include <stdexcept>

#include "sched/thread_pool.hpp"

namespace stkde {

template <typename T>
void reduce_replicas(DenseGrid3<T>& dst,
                     const std::vector<DenseGrid3<T>>& replicas,
                     sched::ThreadPool& pool) {
  bool any_padded = dst.padded();
  for (const auto& r : replicas) {
    if (!(r.extent() == dst.extent()))
      throw std::invalid_argument("reduce_replicas: extent mismatch");
    any_padded = any_padded || r.padded();
  }
  if (any_padded) {
    // Row-aware fallback: padded T-rows make the flat walk read alignment
    // padding. Replica reduction is used by DR, whose replicas are packed,
    // so this path is cold.
    for (const auto& r : replicas) accumulate_buffer(dst, r);
    return;
  }
  T* const out = dst.data();
  const std::int64_t n = dst.size();
  const std::int64_t nt = pool.size();
  const std::int64_t chunk = (n + nt - 1) / nt;
  pool.parallel_for(nt, [&](std::int64_t id) {
    const std::int64_t lo = std::min<std::int64_t>(n, id * chunk);
    const std::int64_t hi = std::min<std::int64_t>(n, lo + chunk);
    for (const auto& r : replicas) {
      const T* const in = r.data();
      for (std::int64_t i = lo; i < hi; ++i) out[i] += in[i];
    }
  });
}

template <typename T>
void accumulate_buffer(DenseGrid3<T>& dst, const DenseGrid3<T>& src) {
  const Extent3 region = src.extent().intersect(dst.extent());
  if (region.empty()) return;
  for (std::int32_t X = region.xlo; X < region.xhi; ++X) {
    for (std::int32_t Y = region.ylo; Y < region.yhi; ++Y) {
      T* d = dst.row(X, Y) + (region.tlo - dst.extent().tlo);
      const T* s = src.row(X, Y) + (region.tlo - src.extent().tlo);
      const std::int32_t len = region.nt();
      for (std::int32_t i = 0; i < len; ++i) d[i] += s[i];
    }
  }
}

template void reduce_replicas<float>(DenseGrid3<float>&,
                                     const std::vector<DenseGrid3<float>>&,
                                     sched::ThreadPool&);
template void reduce_replicas<double>(DenseGrid3<double>&,
                                      const std::vector<DenseGrid3<double>>&,
                                      sched::ThreadPool&);
template void accumulate_buffer<float>(DenseGrid3<float>&,
                                       const DenseGrid3<float>&);
template void accumulate_buffer<double>(DenseGrid3<double>&,
                                        const DenseGrid3<double>&);

}  // namespace stkde
