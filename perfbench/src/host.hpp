#pragma once
/// \file host.hpp
/// Host fingerprint and noise record: the machine parameters of Snippet 2's
/// MctsParams (parallelism, last-level cache, load/FMA balance), steal time,
/// and a fixed reference loop timed through the run. They mark a run taken
/// in a noisy period; no metric is ever corrected by them.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct HostCaches {
  int cores = 0;             ///< online CPUs
  double l2_kib = 0.0;       ///< per-core L2
  double l3_mib = 0.0;       ///< shared last-level cache
};

/// Cores and cache sizes from sysfs (0 where the kernel does not say).
HostCaches host_caches();

/// Aggregate CPU jiffies from /proc/stat.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes cpu_times();

/// Steal jiffies as a share of all jiffies between two readings.
double steal_share(const CpuTimes& a, const CpuTimes& b);

/// One timing (ms) of the fixed register-only reference loop.
double ref_loop_ms();

/// Single-core multiply-add rate of the portable build, GFLOP/s (two flops
/// per multiply-add).
double fma_gflops();

/// Copy bandwidth over an array of at least four times the LLC: the first
/// half is copied onto the second, GB/s of bytes read plus written (median
/// of three passes). \p array_mib receives the array size.
double copy_gbps(double llc_mib, double* array_mib);

}  // namespace perfbench
