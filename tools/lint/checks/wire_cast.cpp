/// wire-cast — reinterpret_cast is forbidden wherever untrusted bytes are
/// encoded or decoded: the byte codec (src/io/bytes.{hpp,cpp}), the SKW1
/// wire codec (src/serve/wire.{hpp,cpp}), and the readers of grid files,
/// WAL records and checkpoints (src/io/grid_io.cpp, src/io/wal.cpp,
/// src/core/durability.cpp).
///
/// Origin: PR 8's misaligned-decode audit. Wire frames arrive at arbitrary
/// buffer offsets; a reinterpret_cast load of a u32/float from the payload
/// is undefined behavior on misaligned addresses (and a strict-aliasing
/// violation everywhere). The codec's contract — pinned by
/// ServeWireRoundTrip.DecodeFromMisalignedBuffersIsExact — is that every
/// multi-byte read goes through the io::Reader byte helpers
/// (shift-assembled or memcpy, alignment-free) and every write through
/// io::put_*. Grid files, WAL records and checkpoints decode the same
/// kind of bytes through the same codec, and a pointer pun there would
/// also read them in host byte order, which the formats do not promise.
/// This check keeps casts from creeping back in when new message types or
/// fields are added; even the byte→char cases must use iterator/memcpy
/// forms so the rule stays absolute and reviewable at a glance.

#include <algorithm>
#include <iterator>
#include <string_view>

#include "check_util.hpp"
#include "checks.hpp"

namespace stkde::lint {

namespace {

constexpr std::string_view kCodecFiles[] = {
    "src/io/bytes.hpp",   "src/io/bytes.cpp",        "src/io/grid_io.cpp",
    "src/io/wal.cpp",     "src/core/durability.cpp", "src/serve/wire.hpp",
    "src/serve/wire.cpp",
};

class WireCastCheck final : public Check {
 public:
  [[nodiscard]] std::string_view name() const override { return "wire-cast"; }
  [[nodiscard]] std::string_view rationale() const override {
    return "reinterpret_cast in a byte codec risks misaligned/aliasing UB "
           "and host byte order on hostile input — decode via io::Reader, "
           "encode via io::put_*";
  }

  void run(const FileContext& ctx, std::vector<Finding>& out) const override {
    if (std::none_of(std::begin(kCodecFiles), std::end(kCodecFiles),
                     [&](std::string_view f) { return ctx.is(f); }))
      return;
    for (const Token& t : ctx.code) {
      if (is_ident(t, "reinterpret_cast")) {
        report(ctx, t.line,
               "reinterpret_cast in a byte codec — use the io::Reader byte "
               "helpers / std::memcpy / iterator ranges (misaligned decode "
               "contract, docs/SERVE.md)",
               out);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Check> make_wire_cast_check() {
  return std::make_unique<WireCastCheck>();
}

}  // namespace stkde::lint
