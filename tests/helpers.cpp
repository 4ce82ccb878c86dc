#include "helpers.hpp"

#include <algorithm>
#include <fstream>

namespace stkde::testing {

TinyInstance make_tiny(std::size_t n, std::int32_t Hs, std::int32_t Ht,
                       std::uint64_t seed) {
  TinyInstance t;
  t.domain = DomainSpec{0.0, 0.0, 0.0, 24.0, 20.0, 16.0, 1.0, 1.0};
  data::ClusterConfig cfg;
  cfg.n_points = n;
  cfg.n_clusters = 3;
  cfg.cluster_sigma_frac = 0.1;
  cfg.background_frac = 0.2;
  cfg.seed = seed;
  t.points = data::generate_clustered(t.domain, cfg);
  t.params.hs = static_cast<double>(Hs);
  t.params.ht = static_cast<double>(Ht);
  t.params.threads = 2;
  return t;
}

std::string file_hex(const std::string& path) {
  static const char* const kDigits = "0123456789abcdef";
  std::ifstream in(path, std::ios::binary);
  std::string hex;
  for (char c; in.get(c);) {
    const auto b = static_cast<unsigned char>(c);
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xfu];
  }
  return hex;
}

double grid_tolerance(const DensityGrid& reference) {
  // Float accumulation in different orders: allow 1e-4 of the peak value
  // plus a tiny absolute floor for all-zero grids.
  return 1e-4 * static_cast<double>(std::max(reference.max_value(), 0.0f)) +
         1e-12;
}

}  // namespace stkde::testing
