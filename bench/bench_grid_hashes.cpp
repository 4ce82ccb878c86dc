// Grid-hash check: one FNV-1a-64 line per (instance, strategy, P) over the
// bits of every voxel each strategy computes. Two builds that print the same
// lines computed the same grids bit for bit, so diffing the output of two
// commits shows which strategies a change moved (docs/BENCHMARKS.md).
//
// Instances: snapped PollenUS at perfbench batch-pollen's shape, continuous
// Dengue on bench_streaming's 160x160x60 city grid, and continuous Flu at
// batch-flu's shape; then the Dengue events weighted (seeded integer
// weights in [0, 4], a fifth of them zero) and with adaptive bandwidths
// (kNN, k = 15, clamped to [hs/4, 2hs]). --smoke shrinks all of them.
// Strategies: the eleven point-based ones (VB and VB-DEC are voxel-based
// references too slow for these grids), each at P = 2 and 4 (PB-TILE
// through tile.threads). The fixed-bandwidth lines come first, so their
// order does not depend on the extensions.

#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "common.hpp"
#include "core/adaptive.hpp"
#include "core/weighted.hpp"
#include "data/datasets.hpp"
#include "data/generator.hpp"
#include "kernels/bandwidth.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

using namespace stkde;

namespace {

struct HashInstance {
  const char* name;
  data::Dataset dataset;
  DomainSpec dom;
  std::size_t n;
  double hs;
  double ht;
  int snap;  ///< sub-voxel lattice subdivision; 0 = continuous coordinates
};

/// FNV-1a-64 over the bytes of every voxel, in (X, Y, T) order; row
/// padding is not part of the hash.
std::uint64_t fnv1a64(const DensityGrid& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const Extent3& e = g.extent();
  for (std::int32_t X = e.xlo; X < e.xhi; ++X)
    for (std::int32_t Y = e.ylo; Y < e.yhi; ++Y) {
      const float* row = g.row(X, Y);
      for (std::int32_t i = 0; i < e.nt(); ++i) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &row[i], sizeof bits);
        for (int b = 0; b < 4; ++b) {
          h ^= (bits >> (8 * b)) & 0xffu;
          h *= 0x100000001b3ULL;
        }
      }
    }
  return h;
}

/// "0x" plus 16 hex digits (the prefix also keeps the JSON cell a string).
std::string hex(std::uint64_t v) {
  static const char* const kDigits = "0123456789abcdef";
  std::string s = "0x0000000000000000";
  for (std::size_t i = 17; i >= 2; --i, v >>= 4) s[i] = kDigits[v & 0xfu];
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const bench::BenchEnv env = bench::bench_env(cli);
  const bool smoke = cli.smoke || util::env_flag("STKDE_BENCH_FAST");

  const HashInstance instances[] = {
      smoke ? HashInstance{"pollen-snapped", data::Dataset::kPollenUS,
                           {0, 0, 0, 82, 38, 21, 1, 1}, 1500, 6.0, 2.0, 4}
            : HashInstance{"pollen-snapped", data::Dataset::kPollenUS,
                           {0, 0, 0, 326, 151, 84, 1, 1}, 14000, 24.0, 6.0, 4},
      smoke ? HashInstance{"dengue", data::Dataset::kDengue,
                           {0, 0, 0, 2000, 2000, 20, 50, 1}, 3000, 400.0, 5.0, 0}
            : HashInstance{"dengue", data::Dataset::kDengue,
                           {0, 0, 0, 8000, 8000, 60, 50, 1}, 42000, 400.0, 5.0,
                           0},
      smoke ? HashInstance{"flu", data::Dataset::kFlu,
                           {0, 0, 0, 64, 80, 100, 1, 1}, 2000, 3.0, 4.0, 0}
            : HashInstance{"flu", data::Dataset::kFlu,
                           {0, 0, 0, 256, 320, 400, 1, 1}, 12000, 3.0, 4.0, 0},
  };

  util::Table t({"instance", "strategy", "P", "fnv1a64"});
  // One line per hashed strategy and P; \p run(algo, P) computes the grid.
  auto hash_all = [&](const char* name, const auto& run) {
    for (const Algorithm algo : all_algorithms()) {
      if (algo == Algorithm::kVB || algo == Algorithm::kVBDec) continue;
      for (const int P : {2, 4}) {
        const std::string h = hex(fnv1a64(run(algo, P).grid));
        std::cout << name << ' ' << to_string(algo) << " P=" << P << ' ' << h
                  << std::endl;
        t.row().cell(name).cell(to_string(algo)).cell(P).cell(h);
      }
    }
  };
  auto params_for = [](const HashInstance& inst, Algorithm algo, int P) {
    Params p;
    p.hs = inst.hs;
    p.ht = inst.ht;
    p.threads = P;
    if (algo == Algorithm::kPBTile) p.tile.threads = P;
    return p;
  };
  for (const HashInstance& inst : instances) {
    PointSet pts = data::generate_dataset(inst.dataset, inst.dom, inst.n, 1);
    if (inst.snap > 0) pts = data::snap_to_lattice(pts, inst.dom, inst.snap);
    hash_all(inst.name, [&](Algorithm algo, int P) {
      return estimate(pts, inst.dom, params_for(inst, algo, P), algo);
    });
  }

  const HashInstance& dengue = instances[1];
  const PointSet pts =
      data::generate_dataset(dengue.dataset, dengue.dom, dengue.n, 1);
  util::Xoshiro256 rng(7);
  std::vector<double> weights(pts.size());
  for (double& w : weights) w = static_cast<double>(rng.below(5));
  hash_all("dengue-weighted", [&](Algorithm algo, int P) {
    return core::run_weighted(pts, weights, dengue.dom,
                              params_for(dengue, algo, P), algo);
  });
  core::AdaptiveParams ap;
  kernels::AdaptiveClamp clamp;
  clamp.min_hs = dengue.hs / 4.0;
  clamp.max_hs = dengue.hs * 2.0;
  ap.hs = kernels::knn_adaptive_bandwidths(pts, 15, clamp);
  ap.ht = dengue.ht;
  hash_all("dengue-adaptive", [&](Algorithm algo, int P) {
    ap.threads = P;
    return core::run_adaptive(pts, dengue.dom, ap, algo);
  });
  bench::JsonArtifact json("grid_hashes", env, cli);
  json.add_table("hashes", t);
  json.write();
  return 0;
}
