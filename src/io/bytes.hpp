#pragma once
/// \file bytes.hpp
/// The one byte codec under every binary format of the project: SKW1 frames
/// (serve/wire.hpp), WAL records (io/wal.hpp), checkpoints
/// (core/durability.hpp) and grid files (io/grid_io.hpp).
///
///  - put_*: little-endian emitters appending to a byte buffer. They emit
///    bytes explicitly, so every format reads the same on any host.
///  - Reader: a bounds-checked little-endian cursor over untrusted bytes.
///    Any overrun latches `fail` and every later read returns 0, so a
///    decoder reads a whole record and checks once. Reads assemble values
///    from bytes (or memcpy), never through a pointer cast, so a buffer at
///    any alignment decodes exactly.
///  - read_file: a whole file, with every stdio step checked.
///  - put_grid/write_grid/read_grid: the dense grid payload (layout in
///    io/grid_io.hpp), appended to a buffer or streamed to a sink. read_grid
///    checks, overflow-safely, that the extent's floats fill the rest of the
///    input exactly before it allocates, so the grid is bounded by the
///    input's size, whatever its header claims, and it accepts every grid
///    the writers emit.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "grid/dense_grid.hpp"
#include "grid/extent.hpp"

namespace stkde::io {

using Bytes = std::vector<std::uint8_t>;

// Little-endian emitters ------------------------------------------------------

/// Append \p v's sizeof(U) bytes, least significant first.
template <class U>
void put_le(Bytes& b, U v) {
  for (std::size_t i = 0; i < sizeof(U); ++i)
    b.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

inline void put_u8(Bytes& b, std::uint8_t v) { b.push_back(v); }
inline void put_u16(Bytes& b, std::uint16_t v) { put_le(b, v); }
inline void put_u32(Bytes& b, std::uint32_t v) { put_le(b, v); }
inline void put_u64(Bytes& b, std::uint64_t v) { put_le(b, v); }
inline void put_i32(Bytes& b, std::int32_t v) {
  put_le(b, static_cast<std::uint32_t>(v));
}
inline void put_i64(Bytes& b, std::int64_t v) {
  put_le(b, static_cast<std::uint64_t>(v));
}
inline void put_f32(Bytes& b, float v) {
  put_le(b, std::bit_cast<std::uint32_t>(v));
}
inline void put_f64(Bytes& b, double v) {
  put_le(b, std::bit_cast<std::uint64_t>(v));
}

/// Overwrite the four bytes at \p at with \p v (a length or CRC field
/// whose value is known only once the rest of the record is emitted).
inline void patch_u32(Bytes& b, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i)
    b[at + i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
}

/// \p n floats, little-endian (one memcpy on a little-endian host).
void put_f32s(Bytes& b, const float* v, std::size_t n);

/// i32 xlo, xhi, ylo, yhi, tlo, thi.
void put_extent(Bytes& b, const Extent3& e);

/// Bytes put_point() appends.
inline constexpr std::size_t kPointBytes = 3 * sizeof(double);

/// f64 x, y, t.
void put_point(Bytes& b, const Point& p);

// Bounds-checked reader -------------------------------------------------------

/// Little-endian cursor over \p n bytes at \p p; any overrun latches fail.
struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t off = 0;
  bool fail = false;

  [[nodiscard]] std::size_t remaining() const { return n - off; }

  bool need(std::size_t k) {
    if (fail || n - off < k) {
      fail = true;
      return false;
    }
    return true;
  }

  /// The next \p k bytes, raw, or nullptr on overrun.
  const std::uint8_t* bytes(std::size_t k) {
    if (!need(k)) return nullptr;
    const std::uint8_t* at = p + off;
    off += k;
    return at;
  }

  /// The next sizeof(U) bytes as a little-endian unsigned, or 0 on overrun.
  template <class U>
  U get_le() {
    if (!need(sizeof(U))) return 0;
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i)
      v |= static_cast<U>(static_cast<U>(p[off + i]) << (8 * i));
    off += sizeof(U);
    return v;
  }

  std::uint8_t u8() { return get_le<std::uint8_t>(); }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// \p count little-endian floats into \p out (left untouched on overrun).
  void f32s(float* out, std::size_t count) {
    if (fail || count > remaining() / sizeof(float)) {
      fail = true;
      return;
    }
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, p + off, count * sizeof(float));
      off += count * sizeof(float);
    } else {
      for (std::size_t i = 0; i < count; ++i) out[i] = f32();
    }
  }

  Extent3 extent() {
    Extent3 e;
    e.xlo = i32();
    e.xhi = i32();
    e.ylo = i32();
    e.yhi = i32();
    e.tlo = i32();
    e.thi = i32();
    return e;
  }

  Point point() {
    Point q;
    q.x = f64();
    q.y = f64();
    q.t = f64();
    return q;
  }
};

// Files and grid payloads -----------------------------------------------------

/// The whole file at \p path. Throws std::runtime_error, "<who>: <op>
/// failed on <path>: <strerror>", when open, fseek, ftell or fread fails.
[[nodiscard]] Bytes read_file(const std::string& path, const char* who);

/// Bytes put_grid() appends for \p grid (header + dense payload).
[[nodiscard]] std::uint64_t grid_payload_bytes(const DensityGrid& grid);

/// Receives consecutive pieces of an encoded payload.
using ByteSink = std::function<void(const void* data, std::size_t n)>;

/// Emit \p grid's dense payload through \p sink: magic "STKDEG1\0",
/// i32[6] extent, then the floats in T-innermost order with any row
/// padding skipped. The floats go out straight from the grid on a
/// little-endian host, else converted one row at a time, so a streaming
/// writer needs no copy of the grid.
void write_grid(const DensityGrid& grid, const ByteSink& sink);

/// Append write_grid()'s bytes for \p grid to \p b.
void put_grid(Bytes& b, const DensityGrid& grid);

/// Decode a dense grid payload that fills the rest of \p r exactly. Throws
/// std::runtime_error naming \p where on a bad magic, an empty or inverted
/// axis, or an extent whose floats do not fill the rest exactly; only then
/// does it allocate (a packed grid, through the memory budget).
[[nodiscard]] DensityGrid read_grid(Reader& r, const std::string& where);

}  // namespace stkde::io
