#pragma once
/// \file grid_io.hpp
/// Raw binary snapshot of a density grid (little-endian on any host, fixed
/// header) — used to checkpoint results and to diff runs across
/// strategies. The same dense payload rides inside checkpoints
/// (core/durability.hpp) and the serve layer's RegionGrid frames
/// (serve/wire.hpp); all three encode and decode it through io/bytes.hpp.
///
/// Payload layout: 8-byte magic "STKDEG1\0", six int32 extent bounds
/// (xlo, xhi, ylo, yhi, tlo, thi), then nx*ny*nt floats in the grid's
/// T-innermost order. The payload is always dense: padded-row grids
/// (RowPad::kCacheLine) are written row by row with the alignment padding
/// skipped, so padded and packed grids produce identical bytes.

#include <string>

#include "grid/dense_grid.hpp"

namespace stkde::io {

/// Write \p grid's payload to the file at \p path, streamed from the grid
/// (no copy of it is built). Throws std::runtime_error on I/O error.
void save_grid(const std::string& path, const DensityGrid& grid);

/// Load a grid saved by save_grid(). Throws std::runtime_error when the
/// file cannot be read or is not a grid file: a bad magic, a header with
/// an empty or inverted axis, or an extent whose floats do not fill the
/// file exactly. A hostile header throws before anything is allocated;
/// every grid save_grid() writes loads. The loaded grid is packed (RowPad
/// is storage-only and never round-trips).
[[nodiscard]] DensityGrid load_grid(const std::string& path);

}  // namespace stkde::io
