#include "io/grid_io.hpp"

#include <fstream>
#include <stdexcept>

#include "io/bytes.hpp"
#include "io/checked_io.hpp"

namespace stkde::io {

void save_grid(const std::string& path, const DensityGrid& grid) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("grid_io: cannot open " + path);
  write_grid(grid, [&](const void* data, std::size_t n) {
    checked_stream_write(out, data, n, "grid_io", path);
  });
}

DensityGrid load_grid(const std::string& path) {
  const Bytes bytes = read_file(path, "grid_io");
  Reader r{bytes.data(), bytes.size()};
  return read_grid(r, path);
}

}  // namespace stkde::io
