// Epidemic surveillance (the paper's Figure 1 scenario): dengue-like cases
// in a city over two years, visualized at two bandwidth settings.
//
//   $ ./epidemic_dengue [--out /tmp] [--n 15000]
//
// Produces, for each bandwidth setting, a PGM heatmap (time-aggregated) and
// a VTK volume for the space-time cube, and reports the strongest
// space-time cluster — the actionable output of outbreak monitoring.

#include <iostream>

#include "core/estimator.hpp"
#include "data/datasets.hpp"
#include "geom/voxel_mapper.hpp"
#include "io/pgm.hpp"
#include "io/slice.hpp"
#include "io/vtk.hpp"
#include "util/args.hpp"

using namespace stkde;

namespace {

struct Setting {
  const char* label;
  double hs;  // meters
  double ht;  // days
};

void report_peak(const Result& r, const VoxelMapper& map) {
  float best = -1.0f;
  Voxel at{};
  const Extent3& e = r.grid.extent();
  for (std::int32_t X = e.xlo; X < e.xhi; ++X)
    for (std::int32_t Y = e.ylo; Y < e.yhi; ++Y) {
      const float* row = r.grid.row(X, Y);
      for (std::int32_t T = 0; T < e.nt(); ++T)
        if (row[T] > best) {
          best = row[T];
          at = Voxel{X, Y, e.tlo + T};
        }
    }
  const Point c = map.center_of(at);
  std::cout << "  strongest cluster: density " << best << " at ("
            << c.x << " m, " << c.y << " m), day " << c.t << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::CommandLine args(argc, argv, "[--out DIR] [--n 15000]");
  const std::string out = args.get("out", std::string("."));
  const auto n = static_cast<std::size_t>(args.get("n", 15000L));

  // A Cali-sized city: 12 x 10 km, two years, 25 m cells, daily slices
  // (mirroring Dengue Hr: ~300 x 400 x 728 voxels).
  const DomainSpec city{0, 0, 0, 12'000.0, 10'000.0, 728.0, 40.0, 1.0};
  const PointSet cases =
      data::generate_dataset(data::Dataset::kDengue, city, n, 2010);
  const VoxelMapper map(city);
  std::cout << "dengue-like surveillance: " << cases.size() << " cases, grid "
            << city.dims().gx << "x" << city.dims().gy << "x"
            << city.dims().gt << "\n\n";

  // Figure 1's two settings: broad situational awareness vs focused hotspots.
  const Setting settings[] = {{"broad (hs=2500m, ht=14d)", 2500.0, 14.0},
                              {"focused (hs=500m, ht=7d)", 500.0, 7.0}};
  for (const auto& s : settings) {
    Params params;
    params.hs = s.hs;
    params.ht = s.ht;
    const Result r = estimate(cases, city, params, Algorithm::kPBSymPDSched);
    std::cout << s.label << ": " << r.total_seconds() << " s with "
              << r.diag.algorithm << "\n";
    report_peak(r, map);

    const std::string tag =
        std::string(s.hs > 1000 ? "broad" : "focused");
    const io::Field2D heat = io::time_aggregate(r.grid);
    io::write_pgm(out + "/dengue_" + tag + ".pgm", heat);
    io::write_vtk(out + "/dengue_" + tag + ".vtk", r.grid, city, /*stride=*/4);
    std::cout << "  wrote " << out << "/dengue_" << tag << ".pgm and .vtk\n\n";
  }
  std::cout << "Load the .vtk files in ParaView for the space-time cube; the "
               ".pgm files are the Figure 1-style heatmaps.\n";
  return 0;
}
