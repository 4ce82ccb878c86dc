// Positive fixture: wire-cast also covers the grid-file, WAL and checkpoint
// readers and the io/bytes codec. A pointer pun of file bytes is the
// misaligned, host-byte-order read the codec replaced.
// Expected: 2 wire-cast findings (lines marked FIRE).

#include <array>
#include <cstdint>
#include <istream>

namespace stkde::io {

std::array<std::int32_t, 6> bad_read_header(std::istream& in) {
  std::array<std::int32_t, 6> hdr{};
  in.read(reinterpret_cast<char*>(hdr.data()), sizeof(hdr));  // FIRE wire-cast
  return hdr;
}

float bad_read_float(const std::uint8_t* p) {
  return *reinterpret_cast<const float*>(p);  // FIRE wire-cast
}

}  // namespace stkde::io
