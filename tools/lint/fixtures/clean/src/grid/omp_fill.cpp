// Negative fixture: `#pragma omp simd` is the one OpenMP construct the tree
// compiles (-fopenmp-simd, no runtime); "omp_" counts only at the start of
// an identifier; and #pragma omp parallel or omp_get_thread_num() in a
// comment or a string is not code. omp-runtime must stay silent here.
// Expected: 0 findings.

#include <cstdint>

#define STKDE_SIMD _Pragma("omp simd")

namespace stkde {

float simd_sum(const float* p, std::int64_t n) {
  float s = 0.0f;
#pragma omp simd reduction(+ : s)
  for (std::int64_t i = 0; i < n; ++i) s += p[i];
  return s;
}

int total(const int* decomp_sizes, int n) {
  int t = 0;
  STKDE_SIMD
  for (int i = 0; i < n; ++i) t += decomp_sizes[i];
  return t;
}

const char* const kNote = "#pragma omp parallel for; omp_get_thread_num()";

}  // namespace stkde
