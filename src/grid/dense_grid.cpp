#include "grid/dense_grid.hpp"

#include <algorithm>
#include <cmath>

#include "sched/thread_pool.hpp"

namespace stkde {

// Reductions and copies come in two shapes: a flat SIMD walk over the whole
// allocation when rows are packed, and a row-wise walk that skips the
// alignment padding when they are not (padding cells are storage, not data —
// only fill() may touch them).

template <typename T>
void DenseGrid3<T>::fill(T v) {
  // Padding cells are filled too: they must never hold signaling garbage,
  // and a flat fill is faster than a row-wise one.
  std::fill_n(data_.get(), static_cast<std::size_t>(size_), v);
}

template <typename T>
void DenseGrid3<T>::fill_parallel(T v, sched::ThreadPool& pool) {
  T* const p = data_.get();
  const std::int64_t n = size_;
  const std::int64_t nt = pool.size();
  const std::int64_t chunk = (n + nt - 1) / nt;
  pool.parallel_for(nt, [&](std::int64_t id) {
    const std::int64_t lo = std::min<std::int64_t>(n, id * chunk);
    const std::int64_t hi = std::min<std::int64_t>(n, lo + chunk);
    std::fill(p + lo, p + hi, v);
  });
}

template <typename T>
void DenseGrid3<T>::copy_from(const DenseGrid3& src) {
  if (!allocated())
    allocate(src.ext_, src.padded() ? RowPad::kCacheLine : RowPad::kNone);
  else if (!(ext_ == src.ext_))
    throw std::invalid_argument("copy_from: extent mismatch");
  if (!padded() && !src.padded()) {
    const T* const in = src.data_.get();
    T* const out = data_.get();
#pragma omp simd
    for (std::int64_t i = 0; i < size_; ++i) out[i] = in[i];
    return;
  }
  const std::int32_t len = ext_.nt();
  for (std::int32_t X = ext_.xlo; X < ext_.xhi; ++X)
    for (std::int32_t Y = ext_.ylo; Y < ext_.yhi; ++Y)
      std::copy_n(src.row(X, Y), len, row(X, Y));
}

template <typename T>
void DenseGrid3<T>::assign_scaled(const DenseGrid3& src, double scale) {
  if (!allocated())
    allocate(src.ext_, src.padded() ? RowPad::kCacheLine : RowPad::kNone);
  else if (!(ext_ == src.ext_))
    throw std::invalid_argument("assign_scaled: extent mismatch");
  if (!padded() && !src.padded()) {
    const T* const in = src.data_.get();
    T* const out = data_.get();
#pragma omp simd
    for (std::int64_t i = 0; i < size_; ++i)
      out[i] = static_cast<T>(static_cast<double>(in[i]) * scale);
    return;
  }
  const std::int32_t len = ext_.nt();
  for (std::int32_t X = ext_.xlo; X < ext_.xhi; ++X)
    for (std::int32_t Y = ext_.ylo; Y < ext_.yhi; ++Y) {
      const T* const in = src.row(X, Y);
      T* const out = row(X, Y);
#pragma omp simd
      for (std::int32_t i = 0; i < len; ++i)
        out[i] = static_cast<T>(static_cast<double>(in[i]) * scale);
    }
}

template <typename T>
void DenseGrid3<T>::copy_region(const DenseGrid3& src, const Extent3& region) {
  const Extent3 r = region.intersect(ext_).intersect(src.ext_);
  if (r.empty()) return;
  const std::int32_t len = r.nt();
  for (std::int32_t X = r.xlo; X < r.xhi; ++X)
    for (std::int32_t Y = r.ylo; Y < r.yhi; ++Y) {
      const T* const in = src.row(X, Y) + (r.tlo - src.ext_.tlo);
      T* const out = row(X, Y) + (r.tlo - ext_.tlo);
      std::copy_n(in, len, out);
    }
}

template <typename T>
double DenseGrid3<T>::sum() const {
  double s = 0.0;
  if (!padded()) {
    const T* const p = data_.get();
#pragma omp simd reduction(+ : s)
    for (std::int64_t i = 0; i < size_; ++i) s += static_cast<double>(p[i]);
    return s;
  }
  const std::int32_t len = ext_.nt();
  for (std::int32_t X = ext_.xlo; X < ext_.xhi; ++X)
    for (std::int32_t Y = ext_.ylo; Y < ext_.yhi; ++Y) {
      const T* const p = row(X, Y);
#pragma omp simd reduction(+ : s)
      for (std::int32_t i = 0; i < len; ++i) s += static_cast<double>(p[i]);
    }
  return s;
}

template <typename T>
double DenseGrid3<T>::max_abs_diff(const DenseGrid3& other) const {
  if (!(ext_ == other.ext_))
    throw std::invalid_argument("max_abs_diff: extent mismatch");
  double m = 0.0;
  if (!padded() && !other.padded()) {
    const T* const a = data_.get();
    const T* const b = other.data_.get();
#pragma omp simd reduction(max : m)
    for (std::int64_t i = 0; i < size_; ++i)
      m = std::max(m, std::abs(static_cast<double>(a[i]) -
                               static_cast<double>(b[i])));
    return m;
  }
  const std::int32_t len = ext_.nt();
  for (std::int32_t X = ext_.xlo; X < ext_.xhi; ++X)
    for (std::int32_t Y = ext_.ylo; Y < ext_.yhi; ++Y) {
      const T* const a = row(X, Y);
      const T* const b = other.row(X, Y);
#pragma omp simd reduction(max : m)
      for (std::int32_t i = 0; i < len; ++i)
        m = std::max(m, std::abs(static_cast<double>(a[i]) -
                                 static_cast<double>(b[i])));
    }
  return m;
}

template <typename T>
T DenseGrid3<T>::max_value() const {
  if (size_ == 0) return T{};
  if (!padded()) {
    T m = data_[0];
    const T* const p = data_.get();
#pragma omp simd reduction(max : m)
    for (std::int64_t i = 1; i < size_; ++i) m = std::max(m, p[i]);
    return m;
  }
  T m = at(ext_.xlo, ext_.ylo, ext_.tlo);
  const std::int32_t len = ext_.nt();
  for (std::int32_t X = ext_.xlo; X < ext_.xhi; ++X)
    for (std::int32_t Y = ext_.ylo; Y < ext_.yhi; ++Y) {
      const T* const p = row(X, Y);
#pragma omp simd reduction(max : m)
      for (std::int32_t i = 0; i < len; ++i) m = std::max(m, p[i]);
    }
  return m;
}

template class DenseGrid3<float>;
template class DenseGrid3<double>;

}  // namespace stkde
