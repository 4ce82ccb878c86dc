#include "serve/wire.hpp"

#include <cstring>

#include "io/bytes.hpp"

namespace stkde::serve::wire {

namespace {

using io::Reader;

constexpr std::uint8_t kMagic[4] = {'S', 'K', 'W', '1'};
constexpr std::size_t kHotspotRecordBytes = 32;
constexpr std::uint32_t kMaxErrorMessageBytes = 1u << 16;

/// Start a frame: header with a zero length placeholder.
Frame begin_frame(MsgType type) {
  Frame f;
  f.reserve(kHeaderBytes);
  for (const std::uint8_t b : kMagic) f.push_back(b);
  io::put_u16(f, static_cast<std::uint16_t>(type));
  io::put_u16(f, 0);  // reserved
  io::put_u32(f, 0);  // payload length, patched by end_frame
  return f;
}

void end_frame(Frame& f) {
  io::patch_u32(f, 8, static_cast<std::uint32_t>(f.size() - kHeaderBytes));
}

bool set_error(std::string* error, const char* reason) {
  if (error) *error = reason;
  return false;
}

/// Shared frame-level validation; returns the payload view or nullopt.
std::optional<Reader> open_frame(const std::uint8_t* data, std::size_t size,
                                 MsgType* type, std::string* error) {
  if (data == nullptr || size < kHeaderBytes) {
    set_error(error, "frame shorter than header");
    return std::nullopt;
  }
  if (std::memcmp(data, kMagic, 4) != 0) {
    set_error(error, "bad frame magic");
    return std::nullopt;
  }
  Reader hdr{data + 4, size - 4};
  *type = static_cast<MsgType>(hdr.u16());
  if (hdr.u16() != 0) {
    set_error(error, "reserved field not zero");
    return std::nullopt;
  }
  const std::uint32_t len = hdr.u32();
  if (len > kMaxPayloadBytes) {
    set_error(error, "payload length over cap");
    return std::nullopt;
  }
  if (static_cast<std::size_t>(len) != size - kHeaderBytes) {
    set_error(error, "payload length disagrees with frame size");
    return std::nullopt;
  }
  return Reader{data + kHeaderBytes, len};
}

}  // namespace

// Encoding -------------------------------------------------------------------

Frame encode(const QueryMessage& msg) {
  Frame f = std::visit(
      [](const auto& q) -> Frame {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, DensityAtQuery>) {
          Frame out = begin_frame(MsgType::kDensityAtQuery);
          io::put_point(out, q.at);
          return out;
        } else if constexpr (std::is_same_v<T, RegionQuery>) {
          Frame out = begin_frame(MsgType::kRegionQuery);
          io::put_extent(out, q.region);
          io::put_u8(out, static_cast<std::uint8_t>(q.op));
          return out;
        } else if constexpr (std::is_same_v<T, SliceQuery>) {
          Frame out = begin_frame(MsgType::kSliceQuery);
          io::put_i32(out, q.t);
          return out;
        } else if constexpr (std::is_same_v<T, HotspotsQuery>) {
          Frame out = begin_frame(MsgType::kHotspotsQuery);
          io::put_u32(out, q.k);
          io::put_f64(out, q.quantile);
          return out;
        } else if constexpr (std::is_same_v<T, RegionGridQuery>) {
          Frame out = begin_frame(MsgType::kRegionGridQuery);
          io::put_extent(out, q.region);
          return out;
        } else {
          static_assert(std::is_same_v<T, HealthQuery>);
          return begin_frame(MsgType::kHealthQuery);  // empty payload
        }
      },
      msg);
  end_frame(f);
  return f;
}

Frame encode(const ResponseMessage& msg) {
  Frame f = std::visit(
      [](const auto& r) -> Frame {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, DensityAtResponse>) {
          Frame out = begin_frame(MsgType::kDensityAtResponse);
          io::put_u64(out, r.version);
          io::put_f32(out, r.value);
          return out;
        } else if constexpr (std::is_same_v<T, RegionResponse>) {
          Frame out = begin_frame(MsgType::kRegionResponse);
          io::put_u64(out, r.version);
          io::put_u8(out, static_cast<std::uint8_t>(r.op));
          io::put_f64(out, r.value);
          return out;
        } else if constexpr (std::is_same_v<T, SliceResponse>) {
          Frame out = begin_frame(MsgType::kSliceResponse);
          io::put_u64(out, r.version);
          io::put_i32(out, r.t);
          io::put_i32(out, r.field.nx);
          io::put_i32(out, r.field.ny);
          io::put_f32s(out, r.field.values.data(), r.field.values.size());
          return out;
        } else if constexpr (std::is_same_v<T, HotspotsResponse>) {
          Frame out = begin_frame(MsgType::kHotspotsResponse);
          io::put_u64(out, r.version);
          io::put_u32(out, static_cast<std::uint32_t>(r.hotspots.size()));
          for (const Hotspot& h : r.hotspots) {
            io::put_i32(out, h.peak.x);
            io::put_i32(out, h.peak.y);
            io::put_i32(out, h.peak.t);
            io::put_f32(out, h.peak_density);
            io::put_f64(out, h.mass);
            io::put_i64(out, h.voxels);
          }
          return out;
        } else if constexpr (std::is_same_v<T, RegionGridResponse>) {
          Frame out = begin_frame(MsgType::kRegionGridResponse);
          io::put_u64(out, r.version);
          // The grid rides as io/grid_io's dense payload, verbatim — the
          // same bytes save_grid() writes to disk.
          io::put_grid(out, r.grid);
          return out;
        } else if constexpr (std::is_same_v<T, HealthResponse>) {
          Frame out = begin_frame(MsgType::kHealthResponse);
          io::put_u64(out, r.version);
          io::put_u64(out, r.head_version);
          io::put_u8(out, static_cast<std::uint8_t>(r.state));
          io::put_u64(out, r.staleness_ms);
          io::put_u64(out, r.quarantined);
          io::put_u64(out, r.quarantine_dropped);
          io::put_u64(out, r.wal_lag);
          return out;
        } else {
          static_assert(std::is_same_v<T, ErrorResponse>);
          Frame out = begin_frame(MsgType::kErrorResponse);
          io::put_u32(out, static_cast<std::uint32_t>(r.code));
          io::put_u32(out, r.retry_after_ms);
          io::put_u32(out, static_cast<std::uint32_t>(r.message.size()));
          out.insert(out.end(), r.message.begin(), r.message.end());
          return out;
        }
      },
      msg);
  end_frame(f);
  return f;
}

// Decoding -------------------------------------------------------------------

namespace {

std::optional<QueryMessage> decode_query_payload(MsgType type, Reader r,
                                                 std::string* error) {
  switch (type) {
    case MsgType::kDensityAtQuery: {
      DensityAtQuery q;
      q.at = r.point();
      if (r.fail || r.remaining() != 0) break;
      return q;
    }
    case MsgType::kRegionQuery: {
      RegionQuery q;
      q.region = r.extent();
      const std::uint8_t op = r.u8();
      if (r.fail || r.remaining() != 0 || op > 1) break;
      q.op = static_cast<RegionOp>(op);
      return q;
    }
    case MsgType::kSliceQuery: {
      SliceQuery q;
      q.t = r.i32();
      if (r.fail || r.remaining() != 0) break;
      return q;
    }
    case MsgType::kHotspotsQuery: {
      HotspotsQuery q;
      q.k = r.u32();
      q.quantile = r.f64();
      if (r.fail || r.remaining() != 0) break;
      return q;
    }
    case MsgType::kRegionGridQuery: {
      RegionGridQuery q;
      q.region = r.extent();
      if (r.fail || r.remaining() != 0) break;
      return q;
    }
    case MsgType::kHealthQuery: {
      if (r.remaining() != 0) break;
      return HealthQuery{};
    }
    default:
      set_error(error, "not a query frame");
      return std::nullopt;
  }
  set_error(error, "malformed query payload");
  return std::nullopt;
}

std::optional<ResponseMessage> decode_response_payload(MsgType type, Reader r,
                                                       std::string* error) {
  switch (type) {
    case MsgType::kDensityAtResponse: {
      DensityAtResponse m;
      m.version = r.u64();
      m.value = r.f32();
      if (r.fail || r.remaining() != 0) break;
      return ResponseMessage{m};
    }
    case MsgType::kRegionResponse: {
      RegionResponse m;
      m.version = r.u64();
      const std::uint8_t op = r.u8();
      m.value = r.f64();
      if (r.fail || r.remaining() != 0 || op > 1) break;
      m.op = static_cast<RegionOp>(op);
      return ResponseMessage{m};
    }
    case MsgType::kSliceResponse: {
      SliceResponse m;
      m.version = r.u64();
      m.t = r.i32();
      m.field.nx = r.i32();
      m.field.ny = r.i32();
      if (r.fail) break;
      // The frame's size bounds the field: two positive int32s give fewer
      // than 2^62 cells, whose byte count cannot wrap.
      if (m.field.nx <= 0 || m.field.ny <= 0) break;
      const std::uint64_t cells = static_cast<std::uint64_t>(m.field.nx) *
                                  static_cast<std::uint64_t>(m.field.ny);
      if (cells * sizeof(float) != r.remaining()) break;
      m.field.values.resize(static_cast<std::size_t>(cells));
      r.f32s(m.field.values.data(), m.field.values.size());
      if (r.fail || r.remaining() != 0) break;
      return ResponseMessage{std::move(m)};
    }
    case MsgType::kHotspotsResponse: {
      HotspotsResponse m;
      m.version = r.u64();
      const std::uint32_t count = r.u32();
      if (r.fail) break;
      if (static_cast<std::uint64_t>(count) * kHotspotRecordBytes !=
          r.remaining())
        break;
      m.hotspots.resize(count);
      for (Hotspot& h : m.hotspots) {
        h.peak.x = r.i32();
        h.peak.y = r.i32();
        h.peak.t = r.i32();
        h.peak_density = r.f32();
        h.mass = r.f64();
        h.voxels = r.i64();
      }
      if (r.fail || r.remaining() != 0) break;
      return ResponseMessage{std::move(m)};
    }
    case MsgType::kRegionGridResponse: {
      RegionGridResponse m;
      m.version = r.u64();
      // read_grid validates the magic and an extent whose floats fill the
      // remaining bytes exactly before it allocates, so the allocation is
      // bounded by the frame size.
      try {
        m.grid = io::read_grid(r, "frame");
      } catch (const std::exception&) {
        break;  // bad payload or memory budget — reported as malformed
      }
      return ResponseMessage{std::move(m)};
    }
    case MsgType::kHealthResponse: {
      HealthResponse m;
      m.version = r.u64();
      m.head_version = r.u64();
      const std::uint8_t state = r.u8();
      m.staleness_ms = r.u64();
      m.quarantined = r.u64();
      m.quarantine_dropped = r.u64();
      m.wal_lag = r.u64();
      if (r.fail || r.remaining() != 0 || state > 2) break;
      m.state = static_cast<SessionState>(state);
      return ResponseMessage{m};
    }
    case MsgType::kErrorResponse: {
      ErrorResponse m;
      const std::uint32_t code = r.u32();
      m.retry_after_ms = r.u32();
      const std::uint32_t len = r.u32();
      if (r.fail || code < 1 || code > kMaxErrorCode ||
          len > kMaxErrorMessageBytes || len != r.remaining())
        break;
      m.code = static_cast<ErrorCode>(code);
      const std::uint8_t* text = r.bytes(len);
      m.message.assign(text, text + len);
      return ResponseMessage{std::move(m)};
    }
    default:
      set_error(error, "not a response frame");
      return std::nullopt;
  }
  set_error(error, "malformed response payload");
  return std::nullopt;
}

}  // namespace

std::optional<QueryMessage> decode_query(const std::uint8_t* data,
                                         std::size_t size,
                                         std::string* error) {
  MsgType type{};
  auto payload = open_frame(data, size, &type, error);
  if (!payload) return std::nullopt;
  return decode_query_payload(type, *payload, error);
}

std::optional<ResponseMessage> decode_response(const std::uint8_t* data,
                                               std::size_t size,
                                               std::string* error) {
  MsgType type{};
  auto payload = open_frame(data, size, &type, error);
  if (!payload) return std::nullopt;
  return decode_response_payload(type, *payload, error);
}

}  // namespace stkde::serve::wire
