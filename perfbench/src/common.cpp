#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "host.hpp"
#include "workloads.hpp"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kib = 0.0;
      ss >> kib;
      return kib * 1024.0 / 1e6;
    }
  return 0.0;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  if (std::isnan(v)) return "nan";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string describe(const std::string& name, const std::vector<double>& v,
                     std::size_t failures, const std::string& unit) {
  std::ostringstream s;
  s << name << ": ";
  if (v.empty()) {
    s << "no samples";
    return s.str();
  }
  s << "median " << num(median(v)) << " " << unit << ", n " << v.size() + failures;
  if (const auto t = tail_with_ten_beyond(v, failures)) {
    s << ", p" << num(t->pct) << " " << num(t->value) << " " << unit << " ("
      << t->beyond << " beyond)";
  } else {
    s << ", no percentile has ten samples beyond it";
  }
  return s.str();
}

ThreadPlan thread_plan(const std::string& workload) {
  ThreadPlan p;
  p.parallel = 2;
  if (workload == "live-dengue") {
    // 2 ingest workers + 1 executor worker; the writer and the client
    // block while those run.
    p.busy = 3;
    p.detail = "2 ingest threads, 1 executor worker, 1 writer + 1 client (blocking)";
  } else {
    // One estimate at a time on at most 2 threads; the executor worker runs
    // only while the client (this thread) waits for its answers.
    p.busy = 2;
    p.detail = "PB-SYM 1 thread; PB-TILE, DR, DD, PD-SCHED-REP 2 threads; "
               "1 executor worker (between estimates)";
  }
  return p;
}

void host_record(const std::vector<double>& ref_ms, double steal,
                 bool as_metrics, PhaseResult& out) {
  const HostCaches h = host_caches();
  double array_mib = 0.0;
  const double copy = copy_gbps(h.l3_mib, &array_mib);
  const double fma = fma_gflops();
  const double ref = ref_ms.empty() ? ref_loop_ms() : median(ref_ms);
  std::ostringstream s;
  s << "host: " << h.cores << " cores, L2 " << num(h.l2_kib) << " KiB/core, L3 "
    << num(h.l3_mib) << " MiB; copy " << num(copy) << " GB/s over a "
    << num(array_mib) << " MiB array (" << num(array_mib / h.l3_mib)
    << "x the L3); single-core multiply-add " << num(fma) << " GFLOP/s";
  out.report.push_back(s.str());
  std::ostringstream n;
  n << "noise: steal share " << num(steal) << "; " << describe("reference loop", ref_ms, 0, "ms");
  if (!ref_ms.empty()) {
    const auto [lo, hi] = std::minmax_element(ref_ms.begin(), ref_ms.end());
    n << ", min " << num(*lo) << " max " << num(*hi);
  }
  out.report.push_back(n.str());
  if (!as_metrics) return;
  out.metrics.put("host.cores", h.cores, "count");
  out.metrics.put("host.l2_kib", h.l2_kib, "KiB");
  out.metrics.put("host.l3_mib", h.l3_mib, "MiB");
  out.metrics.put("host.copy_gbps", copy, "GB/s");
  out.metrics.put("host.fma_gflops", fma, "GFLOP/s");
  out.metrics.put("host.steal_share", steal, "ratio");
  out.metrics.put("host.ref_ms", ref, "ms");
}

}  // namespace perfbench
