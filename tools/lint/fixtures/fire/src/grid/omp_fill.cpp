// Positive fixture: omp-runtime must fire on the OpenMP runtime header, on
// runtime API identifiers, and on every omp pragma other than simd — also
// when spelled _Pragma. Expected: 6 omp-runtime findings (lines marked
// FIRE).

#include <omp.h>  // FIRE omp-runtime

#include <algorithm>
#include <cstdint>

#define STKDE_PAR_FOR _Pragma("omp parallel for")  // FIRE omp-runtime

namespace stkde {

void bad_fill(float* p, std::int64_t n, float v) {
#pragma omp parallel num_threads(4)  // FIRE omp-runtime
  {
    const int nt = omp_get_num_threads();  // FIRE omp-runtime
    const int id = omp_get_thread_num();   // FIRE omp-runtime
    const std::int64_t chunk = (n + nt - 1) / nt;
    const std::int64_t lo = std::min<std::int64_t>(n, id * chunk);
    std::fill(p + lo, p + std::min<std::int64_t>(n, lo + chunk), v);
  }
}

void bad_scale(float* p, std::int64_t n, float s) {
#pragma omp for schedule(dynamic)  // FIRE omp-runtime
  for (std::int64_t i = 0; i < n; ++i) p[i] *= s;
}

}  // namespace stkde
