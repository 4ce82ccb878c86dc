#pragma once
/// \file wire.hpp
/// Compact binary wire format for serve-layer query/response framing.
///
/// Frame layout (all multi-byte values little-endian, independent of host
/// endianness — encoders emit bytes explicitly through io/bytes.hpp, the
/// codec grid files, WAL records and checkpoints share):
///
///   [0, 4)   magic "SKW1"
///   [4, 6)   u16  message type (MsgType)
///   [6, 8)   u16  reserved, must be 0
///   [8, 12)  u32  payload byte length
///   [12, ..) payload (per-type layout below)
///
/// Query payloads:
///   kDensityAtQuery   f64 x, f64 y, f64 t                     (24 B)
///   kRegionQuery      i32[6] extent, u8 op (RegionOp)         (25 B)
///   kSliceQuery       i32 t                                   (4 B)
///   kHotspotsQuery    u32 k, f64 quantile                     (12 B)
///   kRegionGridQuery  i32[6] extent                           (24 B)
///   kHealthQuery      (empty)                                 (0 B)
///
/// Response payloads (every response leads with the u64 snapshot version
/// it was answered from):
///   kDensityAtResponse  u64 version, f32 value
///   kRegionResponse     u64 version, u8 op, f64 value
///   kSliceResponse      u64 version, i32 t, i32 nx, i32 ny, f32[nx*ny]
///   kHotspotsResponse   u64 version, u32 count, count * {i32 x, i32 y,
///                       i32 t, f32 peak_density, f64 mass, i64 voxels}
///   kRegionGridResponse u64 version, then io/grid_io's dense grid payload
///                       verbatim (magic "STKDEG1\0", i32[6] extent,
///                       f32[volume] in T-innermost order, little-endian
///                       like every other field, so host-independent)
///   kHealthResponse     u64 version, u64 head_version, u8 state
///                       (SessionState), u64 staleness_ms, u64 quarantined,
///                       u64 quarantine_dropped, u64 wal_lag       (49 B)
///   kErrorResponse      u32 code (ErrorCode), u32 retry_after_ms,
///                       u32 len, len message bytes
///
/// Decoding never throws on malformed input and never allocates more than
/// the frame itself justifies: every count/extent field is validated
/// against the actual payload length before any allocation, so truncated,
/// bit-flipped, or hostile frames produce an error return — not UB, not an
/// OOM. Extents whose declared volume disagrees with the payload are
/// rejected; empty extents are legal in *queries* (they simply select no
/// voxels) but rejected in grid payloads (grid_io's contract).

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "geom/point.hpp"
#include "grid/dense_grid.hpp"
#include "grid/extent.hpp"
#include "io/slice.hpp"
#include "serve/session.hpp"

namespace stkde::serve::wire {

using Frame = std::vector<std::uint8_t>;

enum class MsgType : std::uint16_t {
  kDensityAtQuery = 1,
  kRegionQuery = 2,
  kSliceQuery = 3,
  kHotspotsQuery = 4,
  kRegionGridQuery = 5,
  kHealthQuery = 6,
  kDensityAtResponse = 129,
  kRegionResponse = 130,
  kSliceResponse = 131,
  kHotspotsResponse = 132,
  kRegionGridResponse = 133,
  kHealthResponse = 134,
  kErrorResponse = 255,
};

enum class RegionOp : std::uint8_t { kSum = 0, kMax = 1 };

enum class ErrorCode : std::uint32_t {
  kMalformed = 1,         ///< frame failed to decode
  kBadArgument = 2,       ///< well-formed query with unservable arguments
  kUnavailable = 3,       ///< no published version to answer from yet
  kInternal = 4,          ///< unexpected server-side failure (fault injection)
  kDeadlineExceeded = 5,  ///< request deadline expired before completion
  kOverloaded = 6,        ///< shed by admission control; honor retry_after_ms
  kShuttingDown = 7,      ///< executor draining; do not retry this endpoint
};

/// Highest wire-legal ErrorCode value; decoders reject codes outside
/// [kMalformed, kMaxErrorCode] so a bit-flipped code cannot smuggle an
/// unknown enum value into typed error handling.
inline constexpr std::uint32_t kMaxErrorCode =
    static_cast<std::uint32_t>(ErrorCode::kShuttingDown);

// Queries --------------------------------------------------------------------

struct DensityAtQuery {
  Point at{};
};

struct RegionQuery {
  Extent3 region{};
  RegionOp op = RegionOp::kSum;
};

struct SliceQuery {
  std::int32_t t = 0;
};

struct HotspotsQuery {
  std::uint32_t k = 8;
  double quantile = 0.99;
};

struct RegionGridQuery {
  Extent3 region{};
};

/// Service health probe: always answerable, even before the first publish
/// and while the writer is stalled — that is its whole point.
struct HealthQuery {};

using QueryMessage = std::variant<DensityAtQuery, RegionQuery, SliceQuery,
                                  HotspotsQuery, RegionGridQuery, HealthQuery>;

// Responses ------------------------------------------------------------------

struct DensityAtResponse {
  std::uint64_t version = 0;
  float value = 0.0f;
};

struct RegionResponse {
  std::uint64_t version = 0;
  RegionOp op = RegionOp::kSum;
  double value = 0.0;
};

struct SliceResponse {
  std::uint64_t version = 0;
  std::int32_t t = 0;
  io::Field2D field;
};

struct HotspotsResponse {
  std::uint64_t version = 0;
  std::vector<Hotspot> hotspots;
};

struct RegionGridResponse {
  std::uint64_t version = 0;
  DensityGrid grid;  ///< normalized densities over the clipped region
};

/// Wire image of SessionHealth: the serving state plus the engine's
/// robustness counters (quarantine, WAL durability lag).
struct HealthResponse {
  std::uint64_t version = 0;       ///< the session's served (pinned) version
  std::uint64_t head_version = 0;  ///< registry head
  SessionState state = SessionState::kNoData;
  std::uint64_t staleness_ms = 0;  ///< time since last publish (max = never)
  std::uint64_t quarantined = 0;
  std::uint64_t quarantine_dropped = 0;
  std::uint64_t wal_lag = 0;
};

struct ErrorResponse {
  ErrorCode code = ErrorCode::kMalformed;
  /// Backpressure hint: how long the client should wait before retrying.
  /// Only meaningful for kOverloaded (admission sheds always set it);
  /// zero everywhere else. serve/client_retry.hpp honors it.
  std::uint32_t retry_after_ms = 0;
  std::string message;

  ErrorResponse() = default;
  ErrorResponse(ErrorCode c, std::string msg)
      : code(c), message(std::move(msg)) {}
  ErrorResponse(ErrorCode c, std::uint32_t retry_ms, std::string msg)
      : code(c), retry_after_ms(retry_ms), message(std::move(msg)) {}
};

using ResponseMessage =
    std::variant<DensityAtResponse, RegionResponse, SliceResponse,
                 HotspotsResponse, RegionGridResponse, HealthResponse,
                 ErrorResponse>;

// Encode / decode ------------------------------------------------------------

[[nodiscard]] Frame encode(const QueryMessage& msg);
[[nodiscard]] Frame encode(const ResponseMessage& msg);

/// Decode one complete query frame. Returns nullopt on malformed input and,
/// when \p error is non-null, stores a one-line reason.
[[nodiscard]] std::optional<QueryMessage> decode_query(
    const std::uint8_t* data, std::size_t size, std::string* error = nullptr);

/// Decode one complete response frame; same contract as decode_query.
[[nodiscard]] std::optional<ResponseMessage> decode_response(
    const std::uint8_t* data, std::size_t size, std::string* error = nullptr);

/// Frame header size in bytes (magic + type + reserved + payload length).
inline constexpr std::size_t kHeaderBytes = 12;

/// Hard payload cap (64 MiB): no conforming message is larger, and the
/// decoder rejects anything claiming to be before touching the payload.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

}  // namespace stkde::serve::wire
