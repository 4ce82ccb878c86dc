#include "host.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

/// Size strings as sysfs writes them ("2048K", "300M").
double sysfs_kib(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  if (!(in >> s) || s.empty()) return 0.0;
  const char suffix = s.back();
  const double v = std::stod(s);
  if (suffix == 'K') return v;
  if (suffix == 'M') return v * 1024.0;
  if (suffix == 'G') return v * 1024.0 * 1024.0;
  return v / 1024.0;
}

std::string read_word(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  in >> s;
  return s;
}

/// The multiply-add kernel of the reference loop and the FMA probe:
/// sixteen independent chains that stay in registers.
float madd_chains(std::int64_t iters, float a, float b) {
  float acc[16];
  for (int i = 0; i < 16; ++i) acc[i] = static_cast<float>(i) * 1e-3f;
  for (std::int64_t it = 0; it < iters; ++it)
    for (float& x : acc) x = x * a + b;
  float s = 0.0f;
  for (const float x : acc) s += x;
  return s;
}

volatile float g_sink = 0.0f;
volatile float g_a = 0.999f;
volatile float g_b = 1e-4f;

}  // namespace

HostCaches host_caches() {
  HostCaches h;
  h.cores = static_cast<int>(std::thread::hardware_concurrency());
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_word(dir + "level");
    if (level.empty()) break;
    const std::string type = read_word(dir + "type");
    if (type == "Instruction") continue;
    const double kib = sysfs_kib(dir + "size");
    if (level == "2") h.l2_kib = kib;
    if (level == "3") h.l3_mib = kib / 1024.0;
  }
  return h;
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTimes t;
  if (!std::getline(in, line)) return t;
  std::istringstream ss(line);
  std::string cpu;
  ss >> cpu;
  std::uint64_t v = 0;
  int field = 0;
  while (ss >> v) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user/nice.
    if (field < 8) t.total += v;
    if (field == 7) t.steal = v;
    ++field;
  }
  return t;
}

double steal_share(const CpuTimes& a, const CpuTimes& b) {
  const std::uint64_t total = b.total - a.total;
  return total > 0 ? static_cast<double>(b.steal - a.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

double ref_loop_ms() {
  const double t0 = now_s();
  g_sink = madd_chains(200000, g_a, g_b);
  return (now_s() - t0) * 1e3;
}

double fma_gflops() {
  constexpr std::int64_t kIters = 4000000;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    g_sink = madd_chains(kIters, g_a, g_b);
    const double dt = now_s() - t0;
    rates.push_back(2.0 * 16.0 * static_cast<double>(kIters) / dt / 1e9);
  }
  return median(rates);
}

double copy_gbps(double llc_mib, double* array_mib) {
  const double mib = std::max(256.0, 4.0 * llc_mib);
  const auto bytes = static_cast<std::size_t>(mib * 1024.0 * 1024.0) & ~std::size_t{63};
  *array_mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
  std::vector<char> buf(bytes, 1);  // first touch outside the timing
  const std::size_t half = bytes / 2;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    std::memcpy(buf.data() + half, buf.data(), half);
    const double dt = now_s() - t0;
    rates.push_back(2.0 * static_cast<double>(half) / dt / 1e9);
    g_sink = static_cast<float>(buf[half + static_cast<std::size_t>(rep) * 4099]);
  }
  return median(rates);
}

}  // namespace perfbench
