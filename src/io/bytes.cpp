#include "io/bytes.hpp"

#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "io/checked_io.hpp"

namespace stkde::io {

namespace {

constexpr char kGridMagic[8] = {'S', 'T', 'K', 'D', 'E', 'G', '1', '\0'};

/// True when \p e's floats are exactly \p floats: each axis length
/// (taken in int64, where hi - lo cannot overflow, and within Extent3's
/// int32) must divide what the axes before it left, so nothing is ever
/// multiplied and the input's size is the only bound.
bool fills_exactly(const Extent3& e, std::uint64_t floats) {
  for (const auto& [lo, hi] : {std::pair{e.xlo, e.xhi}, std::pair{e.ylo, e.yhi},
                               std::pair{e.tlo, e.thi}}) {
    const std::int64_t len = std::int64_t{hi} - lo;
    if (len <= 0 || len > std::numeric_limits<std::int32_t>::max() ||
        floats % static_cast<std::uint64_t>(len) != 0)
      return false;
    floats /= static_cast<std::uint64_t>(len);
  }
  return floats == 1;
}

}  // namespace

void put_f32s(Bytes& b, const float* v, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t at = b.size();
    b.resize(at + n * sizeof(float));
    if (n != 0) std::memcpy(b.data() + at, v, n * sizeof(float));
  } else {
    for (std::size_t i = 0; i < n; ++i) put_f32(b, v[i]);
  }
}

void put_extent(Bytes& b, const Extent3& e) {
  put_i32(b, e.xlo);
  put_i32(b, e.xhi);
  put_i32(b, e.ylo);
  put_i32(b, e.yhi);
  put_i32(b, e.tlo);
  put_i32(b, e.thi);
}

void put_point(Bytes& b, const Point& p) {
  put_f64(b, p.x);
  put_f64(b, p.y);
  put_f64(b, p.t);
}

Bytes read_file(const std::string& path, const char* who) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw_io_error(who, "open for read", path);
  Bytes buf;
  try {
    if (std::fseek(f, 0, SEEK_END) != 0) throw_io_error(who, "seek", path);
    const long end = std::ftell(f);
    if (end < 0) throw_io_error(who, "tell", path);
    if (std::fseek(f, 0, SEEK_SET) != 0) throw_io_error(who, "seek", path);
    buf.resize(static_cast<std::size_t>(end));
    if (!buf.empty() && std::fread(buf.data(), 1, buf.size(), f) != buf.size())
      throw_io_error(who, "read", path);
  } catch (...) {
    std::fclose(f);
    throw;
  }
  std::fclose(f);
  return buf;
}

std::uint64_t grid_payload_bytes(const DensityGrid& grid) {
  return sizeof(kGridMagic) + 6 * sizeof(std::int32_t) +
         static_cast<std::uint64_t>(grid.extent().volume()) * sizeof(float);
}

void write_grid(const DensityGrid& grid, const ByteSink& sink) {
  Bytes buf(kGridMagic, kGridMagic + sizeof(kGridMagic));
  const Extent3& e = grid.extent();
  put_extent(buf, e);
  sink(buf.data(), buf.size());
  const auto floats = [&](const float* v, std::size_t n) {
    if constexpr (std::endian::native == std::endian::little) {
      sink(v, n * sizeof(float));  // already the payload's byte order
    } else {
      buf.clear();
      put_f32s(buf, v, n);
      sink(buf.data(), buf.size());
    }
  };
  if (!grid.padded() && std::endian::native == std::endian::little) {
    floats(grid.data(), static_cast<std::size_t>(grid.size()));
    return;
  }
  // Row by row: skips the in-memory alignment padding, so padded and
  // packed grids give the same bytes, and bounds a big-endian host's
  // conversion buffer to one row.
  const auto nt = static_cast<std::size_t>(e.nt());
  for (std::int32_t X = e.xlo; X < e.xhi; ++X)
    for (std::int32_t Y = e.ylo; Y < e.yhi; ++Y) floats(grid.row(X, Y), nt);
}

void put_grid(Bytes& b, const DensityGrid& grid) {
  b.reserve(b.size() + grid_payload_bytes(grid));
  write_grid(grid, [&b](const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    b.insert(b.end(), p, p + n);
  });
}

DensityGrid read_grid(Reader& r, const std::string& where) {
  const auto fail = [&](const char* reason) {
    return std::runtime_error(std::string("grid_io: ") + reason + " in " +
                              where);
  };
  const std::uint8_t* magic = r.bytes(sizeof(kGridMagic));
  if (magic == nullptr ||
      std::memcmp(magic, kGridMagic, sizeof(kGridMagic)) != 0)
    throw fail("bad magic");
  const Extent3 e = r.extent();
  if (r.fail) throw fail("truncated header");
  const std::uint64_t floats = r.remaining() / sizeof(float);
  if (r.remaining() % sizeof(float) != 0 || !fills_exactly(e, floats))
    throw fail("extent disagrees with the payload size");
  DensityGrid grid(e);
  r.f32s(grid.data(), static_cast<std::size_t>(floats));
  return grid;
}

}  // namespace stkde::io
