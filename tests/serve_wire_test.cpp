/// Serve-layer wire format: golden frames (the byte layout is a contract,
/// not an implementation detail), round-trips for every message type —
/// including padded-row grids and degenerate extents — and decoder
/// robustness against truncated and corrupted frames. The randomized
/// decoder fuzz lives in fuzz_test.cpp; these are the structured cases.

#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace stkde::serve::wire {
namespace {

Frame frame_of(std::initializer_list<unsigned> bytes) {
  Frame f;
  for (const unsigned b : bytes) f.push_back(static_cast<std::uint8_t>(b));
  return f;
}

template <typename T>
const T* decode_query_as(const Frame& f) {
  static std::optional<QueryMessage> held;
  held = decode_query(f.data(), f.size());
  if (!held) return nullptr;
  return std::get_if<T>(&*held);
}

template <typename T>
const T* decode_response_as(const Frame& f) {
  static std::optional<ResponseMessage> held;
  held = decode_response(f.data(), f.size());
  if (!held) return nullptr;
  return std::get_if<T>(&*held);
}

// Golden frames -------------------------------------------------------------

TEST(ServeWireGolden, DensityAtQueryBytes) {
  const Frame f = encode(QueryMessage{DensityAtQuery{Point{1.5, -2.25, 3.0}}});
  const Frame expected = frame_of({
      'S', 'K', 'W', '1',           // magic
      0x01, 0x00,                   // type = kDensityAtQuery
      0x00, 0x00,                   // reserved
      0x18, 0x00, 0x00, 0x00,       // payload length = 24
      0, 0, 0, 0, 0, 0, 0xF8, 0x3F, // x = 1.5
      0, 0, 0, 0, 0, 0, 0x02, 0xC0, // y = -2.25
      0, 0, 0, 0, 0, 0, 0x08, 0x40, // t = 3.0
  });
  EXPECT_EQ(f, expected);
}

TEST(ServeWireGolden, RegionQueryBytes) {
  RegionQuery q;
  q.region = Extent3{1, 2, 3, 4, 5, 6};
  q.op = RegionOp::kMax;
  const Frame f = encode(QueryMessage{q});
  const Frame expected = frame_of({
      'S', 'K', 'W', '1',
      0x02, 0x00,
      0x00, 0x00,
      0x19, 0x00, 0x00, 0x00,  // payload length = 25
      1, 0, 0, 0, 2, 0, 0, 0,  // xlo, xhi
      3, 0, 0, 0, 4, 0, 0, 0,  // ylo, yhi
      5, 0, 0, 0, 6, 0, 0, 0,  // tlo, thi
      0x01,                    // op = kMax
  });
  EXPECT_EQ(f, expected);
}

TEST(ServeWireGolden, SliceQueryBytes) {
  const Frame f = encode(QueryMessage{SliceQuery{7}});
  const Frame expected = frame_of({
      'S', 'K', 'W', '1',
      0x03, 0x00,
      0x00, 0x00,
      0x04, 0x00, 0x00, 0x00,
      0x07, 0x00, 0x00, 0x00,
  });
  EXPECT_EQ(f, expected);
}

TEST(ServeWireGolden, HealthQueryBytes) {
  // The health probe carries no payload at all — answerable by a server in
  // any state, which is its whole reason to exist.
  const Frame f = encode(QueryMessage{HealthQuery{}});
  const Frame expected = frame_of({
      'S', 'K', 'W', '1',
      0x06, 0x00,              // type = kHealthQuery
      0x00, 0x00,              // reserved
      0x00, 0x00, 0x00, 0x00,  // payload length = 0
  });
  EXPECT_EQ(f, expected);
}

TEST(ServeWireGolden, HealthResponseBytes) {
  HealthResponse h;
  h.version = 2;
  h.head_version = 3;
  h.state = SessionState::kDegraded;
  h.staleness_ms = 500;
  h.quarantined = 7;
  h.quarantine_dropped = 1;
  h.wal_lag = 4;
  const Frame f = encode(ResponseMessage{h});
  const Frame expected = frame_of({
      'S', 'K', 'W', '1',
      0x86, 0x00,              // type = kHealthResponse
      0x00, 0x00,              // reserved
      0x31, 0x00, 0x00, 0x00,  // payload length = 49
      2, 0, 0, 0, 0, 0, 0, 0,  // version
      3, 0, 0, 0, 0, 0, 0, 0,  // head_version
      0x01,                    // state = kDegraded
      0xF4, 0x01, 0, 0, 0, 0, 0, 0,  // staleness_ms = 500
      7, 0, 0, 0, 0, 0, 0, 0,  // quarantined
      1, 0, 0, 0, 0, 0, 0, 0,  // quarantine_dropped
      4, 0, 0, 0, 0, 0, 0, 0,  // wal_lag
  });
  EXPECT_EQ(f, expected);
}

TEST(ServeWireGolden, ErrorResponseBytes) {
  const Frame f = encode(
      ResponseMessage{ErrorResponse{ErrorCode::kBadArgument, "no"}});
  const Frame expected = frame_of({
      'S', 'K', 'W', '1',
      0xFF, 0x00,
      0x00, 0x00,
      0x0E, 0x00, 0x00, 0x00,  // payload length = 14
      0x02, 0x00, 0x00, 0x00,  // code = kBadArgument
      0x00, 0x00, 0x00, 0x00,  // retry_after_ms = 0 (not a shed)
      0x02, 0x00, 0x00, 0x00,  // message length = 2
      'n', 'o',
  });
  EXPECT_EQ(f, expected);
}

TEST(ServeWireGolden, OverloadedResponseBytes) {
  // The backpressure frame: kOverloaded always carries the server's
  // retry-after hint so clients can back off without guessing.
  const Frame f = encode(ResponseMessage{
      ErrorResponse{ErrorCode::kOverloaded, 250, "shed"}});
  const Frame expected = frame_of({
      'S', 'K', 'W', '1',
      0xFF, 0x00,
      0x00, 0x00,
      0x10, 0x00, 0x00, 0x00,  // payload length = 16
      0x06, 0x00, 0x00, 0x00,  // code = kOverloaded
      0xFA, 0x00, 0x00, 0x00,  // retry_after_ms = 250
      0x04, 0x00, 0x00, 0x00,  // message length = 4
      's', 'h', 'e', 'd',
  });
  EXPECT_EQ(f, expected);
}

TEST(ServeWireGolden, DeadlineExceededResponseBytes) {
  const Frame f = encode(ResponseMessage{
      ErrorResponse{ErrorCode::kDeadlineExceeded, "late"}});
  const Frame expected = frame_of({
      'S', 'K', 'W', '1',
      0xFF, 0x00,
      0x00, 0x00,
      0x10, 0x00, 0x00, 0x00,  // payload length = 16
      0x05, 0x00, 0x00, 0x00,  // code = kDeadlineExceeded
      0x00, 0x00, 0x00, 0x00,  // retry_after_ms = 0
      0x04, 0x00, 0x00, 0x00,  // message length = 4
      'l', 'a', 't', 'e',
  });
  EXPECT_EQ(f, expected);
}

TEST(ServeWireGolden, ShuttingDownResponseBytes) {
  const Frame f = encode(ResponseMessage{
      ErrorResponse{ErrorCode::kShuttingDown, "bye"}});
  const Frame expected = frame_of({
      'S', 'K', 'W', '1',
      0xFF, 0x00,
      0x00, 0x00,
      0x0F, 0x00, 0x00, 0x00,  // payload length = 15
      0x07, 0x00, 0x00, 0x00,  // code = kShuttingDown
      0x00, 0x00, 0x00, 0x00,  // retry_after_ms = 0
      0x03, 0x00, 0x00, 0x00,  // message length = 3
      'b', 'y', 'e',
  });
  EXPECT_EQ(f, expected);
}

TEST(ServeWireGolden, ErrorRoundTripEveryCode) {
  // Every wire-legal code survives a round trip with its retry hint.
  for (std::uint32_t c = 1; c <= kMaxErrorCode; ++c) {
    ErrorResponse in{static_cast<ErrorCode>(c), c * 10, "m"};
    const auto* out = decode_response_as<ErrorResponse>(
        encode(ResponseMessage{in}));
    ASSERT_NE(out, nullptr) << "code " << c;
    EXPECT_EQ(out->code, in.code);
    EXPECT_EQ(out->retry_after_ms, c * 10);
    EXPECT_EQ(out->message, "m");
  }
}

TEST(ServeWireGolden, ErrorCodeOutOfRangeRejected) {
  // A bit-flipped code must not smuggle an unknown enum value through the
  // typed error path: 0 and kMaxErrorCode+1 both decode to nullopt.
  for (const std::uint32_t bad : {0u, kMaxErrorCode + 1, 0xFFFFFFFFu}) {
    Frame f = encode(ResponseMessage{
        ErrorResponse{ErrorCode::kMalformed, "x"}});
    // Patch the code field in place (payload starts at kHeaderBytes).
    for (int i = 0; i < 4; ++i)
      f[kHeaderBytes + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((bad >> (8 * i)) & 0xFF);
    std::string err;
    EXPECT_FALSE(decode_response(f.data(), f.size(), &err).has_value())
        << "code " << bad;
  }
}

// Round-trips ---------------------------------------------------------------

TEST(ServeWireRoundTrip, EveryQueryType) {
  {
    const Frame f =
        encode(QueryMessage{DensityAtQuery{Point{-12.5, 3e7, 0.125}}});
    const auto* q = decode_query_as<DensityAtQuery>(f);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->at, (Point{-12.5, 3e7, 0.125}));
  }
  {
    RegionQuery in;
    in.region = Extent3{-3, 9, 0, 17, 2, 5};
    in.op = RegionOp::kSum;
    const auto* q = decode_query_as<RegionQuery>(encode(QueryMessage{in}));
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->region, in.region);
    EXPECT_EQ(q->op, RegionOp::kSum);
  }
  {
    const auto* q = decode_query_as<SliceQuery>(encode(QueryMessage{
        SliceQuery{-4}}));
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->t, -4);
  }
  {
    const auto* q = decode_query_as<HotspotsQuery>(encode(QueryMessage{
        HotspotsQuery{17, 0.875}}));
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->k, 17u);
    EXPECT_EQ(q->quantile, 0.875);
  }
  {
    RegionGridQuery in;
    in.region = Extent3{0, 4, 1, 3, 0, 8};
    const auto* q = decode_query_as<RegionGridQuery>(encode(QueryMessage{in}));
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->region, in.region);
  }
  {
    const auto* q = decode_query_as<HealthQuery>(encode(QueryMessage{
        HealthQuery{}}));
    ASSERT_NE(q, nullptr);
  }
}

// Static-analysis regression (docs/ANALYSIS.md): the decoder was flagged
// as an unchecked-memcpy-alignment suspect. It is byte-wise by design —
// every multi-byte field is assembled from individual octets, so no
// load/store ever requires alignment — and this test decodes every frame
// type from deliberately *misaligned* storage (offset 1..7 inside an
// oversized buffer) so the UBSan CI job would trap any future aligned-load
// shortcut the moment it lands.
TEST(ServeWireRoundTrip, DecodeFromMisalignedBuffersIsExact) {
  RegionQuery in;
  in.region = Extent3{-3, 9, 0, 17, 2, 5};
  in.op = RegionOp::kMax;
  const Frame fq = encode(QueryMessage{in});
  ResponseMessage rin{DensityAtResponse{7, 0.0078125f}};
  const Frame fr = encode(rin);
  for (std::size_t shift = 1; shift < 8; ++shift) {
    std::vector<std::uint8_t> q_store(fq.size() + 8, 0xAA);
    std::copy(fq.begin(), fq.end(), q_store.begin() + shift);
    const auto q = decode_query(q_store.data() + shift, fq.size());
    ASSERT_TRUE(q.has_value()) << "shift " << shift;
    const auto* rq = std::get_if<RegionQuery>(&*q);
    ASSERT_NE(rq, nullptr) << "shift " << shift;
    EXPECT_EQ(rq->region, in.region) << "shift " << shift;
    EXPECT_EQ(rq->op, RegionOp::kMax) << "shift " << shift;

    std::vector<std::uint8_t> r_store(fr.size() + 8, 0x55);
    std::copy(fr.begin(), fr.end(), r_store.begin() + shift);
    const auto r = decode_response(r_store.data() + shift, fr.size());
    ASSERT_TRUE(r.has_value()) << "shift " << shift;
    const auto* rr = std::get_if<DensityAtResponse>(&*r);
    ASSERT_NE(rr, nullptr) << "shift " << shift;
    EXPECT_EQ(rr->version, 7u) << "shift " << shift;
    EXPECT_EQ(rr->value, 0.0078125f) << "shift " << shift;
  }
}

TEST(ServeWireRoundTrip, EmptyExtentQueryIsLegal) {
  // An empty region is a valid question (it selects no voxels and sums to
  // zero); only *grid payloads* reject empty extents.
  RegionQuery in;
  in.region = Extent3{5, 5, 0, 4, 0, 4};
  const auto* q = decode_query_as<RegionQuery>(encode(QueryMessage{in}));
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->region.empty());
}

TEST(ServeWireRoundTrip, ScalarResponses) {
  {
    const auto* m = decode_response_as<DensityAtResponse>(
        encode(ResponseMessage{DensityAtResponse{42, 0.5f}}));
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->version, 42u);
    EXPECT_EQ(m->value, 0.5f);
  }
  {
    const auto* m = decode_response_as<RegionResponse>(encode(
        ResponseMessage{RegionResponse{7, RegionOp::kMax, 1.25e-3}}));
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->version, 7u);
    EXPECT_EQ(m->op, RegionOp::kMax);
    EXPECT_EQ(m->value, 1.25e-3);
  }
  {
    const auto* m = decode_response_as<ErrorResponse>(encode(ResponseMessage{
        ErrorResponse{ErrorCode::kMalformed, "truncated frame"}}));
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->code, ErrorCode::kMalformed);
    EXPECT_EQ(m->message, "truncated frame");
  }
}

TEST(ServeWireRoundTrip, HealthResponseAllStates) {
  for (const SessionState s : {SessionState::kFresh, SessionState::kDegraded,
                               SessionState::kNoData}) {
    HealthResponse in;
    in.version = 41;
    in.head_version = 44;
    in.state = s;
    in.staleness_ms = ~0ull;  // "never published" sentinel survives the wire
    in.quarantined = 123456789ull;
    in.quarantine_dropped = 17;
    in.wal_lag = 3;
    const auto* m =
        decode_response_as<HealthResponse>(encode(ResponseMessage{in}));
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->version, 41u);
    EXPECT_EQ(m->head_version, 44u);
    EXPECT_EQ(m->state, s);
    EXPECT_EQ(m->staleness_ms, ~0ull);
    EXPECT_EQ(m->quarantined, 123456789ull);
    EXPECT_EQ(m->quarantine_dropped, 17u);
    EXPECT_EQ(m->wal_lag, 3u);
  }
}

TEST(ServeWireRoundTrip, SliceResponse) {
  SliceResponse in;
  in.version = 9;
  in.t = 3;
  in.field.nx = 3;
  in.field.ny = 2;
  in.field.values = {0.0f, 1.5f, -2.0f, 0.25f, 3.0f, 1e-6f};
  const auto* m = decode_response_as<SliceResponse>(
      encode(ResponseMessage{std::move(in)}));
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->version, 9u);
  EXPECT_EQ(m->t, 3);
  EXPECT_EQ(m->field.nx, 3);
  EXPECT_EQ(m->field.ny, 2);
  EXPECT_EQ(m->field.values,
            (std::vector<float>{0.0f, 1.5f, -2.0f, 0.25f, 3.0f, 1e-6f}));
}

TEST(ServeWireRoundTrip, HotspotsResponse) {
  HotspotsResponse in;
  in.version = 1234567890123ull;
  in.hotspots.push_back(Hotspot{Voxel{4, 7, 2}, 0.75f, 12.5, 31});
  in.hotspots.push_back(Hotspot{Voxel{-1, 0, 9}, 1e-4f, 0.25, 1});
  const auto* m = decode_response_as<HotspotsResponse>(
      encode(ResponseMessage{std::move(in)}));
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->version, 1234567890123ull);
  ASSERT_EQ(m->hotspots.size(), 2u);
  EXPECT_EQ(m->hotspots[0].peak, (Voxel{4, 7, 2}));
  EXPECT_EQ(m->hotspots[0].peak_density, 0.75f);
  EXPECT_EQ(m->hotspots[0].mass, 12.5);
  EXPECT_EQ(m->hotspots[0].voxels, 31);
  EXPECT_EQ(m->hotspots[1].peak, (Voxel{-1, 0, 9}));
}

TEST(ServeWireRoundTrip, EmptyHotspotsResponse) {
  const auto* m = decode_response_as<HotspotsResponse>(
      encode(ResponseMessage{HotspotsResponse{5, {}}}));
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->hotspots.empty());
}

TEST(ServeWireRoundTrip, RegionGridResponsePacked) {
  RegionGridResponse in;
  in.version = 3;
  in.grid.allocate(Extent3{2, 5, 1, 4, 0, 6});
  float v = 0.0f;
  const Extent3 e = in.grid.extent();
  for (std::int32_t X = e.xlo; X < e.xhi; ++X)
    for (std::int32_t Y = e.ylo; Y < e.yhi; ++Y)
      for (std::int32_t T = e.tlo; T < e.thi; ++T)
        in.grid.at(X, Y, T) = (v += 0.125f);
  const Frame f = encode(ResponseMessage{std::move(in)});
  const auto* m = decode_response_as<RegionGridResponse>(f);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->version, 3u);
  ASSERT_EQ(m->grid.extent(), e);
  v = 0.0f;
  for (std::int32_t X = e.xlo; X < e.xhi; ++X)
    for (std::int32_t Y = e.ylo; Y < e.yhi; ++Y)
      for (std::int32_t T = e.tlo; T < e.thi; ++T)
        EXPECT_EQ(m->grid.at(X, Y, T), (v += 0.125f));
}

TEST(ServeWireRoundTrip, RegionGridResponsePaddedRows) {
  // A cache-line-padded grid (nt = 5 floats, stride padded to 16) must put
  // the same *dense* payload on the wire as a packed grid; the decoded grid
  // is packed.
  RegionGridResponse padded;
  padded.version = 11;
  padded.grid.allocate(Extent3{0, 3, 0, 4, 0, 5}, RowPad::kCacheLine);
  padded.grid.fill(0.0f);
  ASSERT_TRUE(padded.grid.padded());
  RegionGridResponse packed;
  packed.version = 11;
  packed.grid.allocate(Extent3{0, 3, 0, 4, 0, 5});
  packed.grid.fill(0.0f);
  for (std::int32_t X = 0; X < 3; ++X)
    for (std::int32_t Y = 0; Y < 4; ++Y)
      for (std::int32_t T = 0; T < 5; ++T) {
        const float v = static_cast<float>(X * 100 + Y * 10 + T);
        padded.grid.at(X, Y, T) = v;
        packed.grid.at(X, Y, T) = v;
      }
  const Frame f_padded = encode(ResponseMessage{std::move(padded)});
  const Frame f_packed = encode(ResponseMessage{std::move(packed)});
  EXPECT_EQ(f_padded, f_packed);

  const auto* m = decode_response_as<RegionGridResponse>(f_padded);
  ASSERT_NE(m, nullptr);
  EXPECT_FALSE(m->grid.padded());
  for (std::int32_t X = 0; X < 3; ++X)
    for (std::int32_t Y = 0; Y < 4; ++Y)
      for (std::int32_t T = 0; T < 5; ++T)
        EXPECT_EQ(m->grid.at(X, Y, T),
                  static_cast<float>(X * 100 + Y * 10 + T));
}

// Decoder robustness --------------------------------------------------------

/// A small corpus covering every frame family.
std::vector<Frame> corpus() {
  std::vector<Frame> out;
  out.push_back(encode(QueryMessage{DensityAtQuery{Point{1, 2, 3}}}));
  out.push_back(encode(QueryMessage{RegionQuery{Extent3{0, 2, 0, 2, 0, 2},
                                                RegionOp::kMax}}));
  out.push_back(encode(QueryMessage{SliceQuery{1}}));
  out.push_back(encode(QueryMessage{HotspotsQuery{4, 0.5}}));
  out.push_back(encode(QueryMessage{RegionGridQuery{Extent3{0, 2, 0, 2, 0, 2}}}));
  out.push_back(encode(QueryMessage{HealthQuery{}}));
  out.push_back(encode(ResponseMessage{DensityAtResponse{1, 2.0f}}));
  {
    HealthResponse h;
    h.version = 1;
    h.head_version = 2;
    h.state = SessionState::kFresh;
    out.push_back(encode(ResponseMessage{h}));
  }
  SliceResponse slice;
  slice.version = 1;
  slice.field.nx = 2;
  slice.field.ny = 2;
  slice.field.values = {1, 2, 3, 4};
  out.push_back(encode(ResponseMessage{std::move(slice)}));
  out.push_back(encode(ResponseMessage{
      HotspotsResponse{1, {Hotspot{Voxel{1, 1, 1}, 1.0f, 2.0, 3}}}}));
  RegionGridResponse grid;
  grid.version = 1;
  grid.grid.allocate(Extent3{0, 2, 0, 2, 0, 2});
  grid.grid.fill(1.0f);
  out.push_back(encode(ResponseMessage{std::move(grid)}));
  out.push_back(encode(ResponseMessage{
      ErrorResponse{ErrorCode::kMalformed, "x"}}));
  return out;
}

TEST(ServeWireRobustness, EveryTruncationFailsCleanly) {
  for (const Frame& f : corpus()) {
    for (std::size_t len = 0; len < f.size(); ++len) {
      EXPECT_FALSE(decode_query(f.data(), len).has_value());
      EXPECT_FALSE(decode_response(f.data(), len).has_value());
    }
  }
}

TEST(ServeWireRobustness, HeaderCorruptionIsRejected) {
  const Frame good = encode(QueryMessage{SliceQuery{1}});
  {
    Frame f = good;
    f[0] = 'X';  // magic
    std::string err;
    EXPECT_FALSE(decode_query(f.data(), f.size(), &err).has_value());
    EXPECT_EQ(err, "bad frame magic");
  }
  {
    Frame f = good;
    f[6] = 1;  // reserved
    EXPECT_FALSE(decode_query(f.data(), f.size()).has_value());
  }
  {
    Frame f = good;
    f[8] += 1;  // payload length disagrees with frame size
    EXPECT_FALSE(decode_query(f.data(), f.size()).has_value());
  }
  {
    Frame f = good;
    f[4] = 0x77;  // unknown message type
    std::string err;
    EXPECT_FALSE(decode_query(f.data(), f.size(), &err).has_value());
  }
}

TEST(ServeWireRobustness, QueryAndResponseNamespacesAreDisjoint) {
  const Frame q = encode(QueryMessage{SliceQuery{1}});
  const Frame r = encode(ResponseMessage{DensityAtResponse{1, 1.0f}});
  std::string err;
  EXPECT_FALSE(decode_response(q.data(), q.size(), &err).has_value());
  EXPECT_EQ(err, "not a response frame");
  EXPECT_FALSE(decode_query(r.data(), r.size(), &err).has_value());
  EXPECT_EQ(err, "not a query frame");
}

TEST(ServeWireRobustness, BadHealthStateIsRejected) {
  HealthResponse h;
  h.state = SessionState::kFresh;
  Frame f = encode(ResponseMessage{h});
  // The state byte sits after version + head_version in the payload.
  f[kHeaderBytes + 16] = 3;  // only 0/1/2 defined
  EXPECT_FALSE(decode_response(f.data(), f.size()).has_value());
}

TEST(ServeWireRobustness, HealthQueryWithPayloadIsRejected) {
  Frame f = encode(QueryMessage{HealthQuery{}});
  f.push_back(0);  // stray payload byte
  f[8] = 1;        // keep the declared length consistent with the frame
  EXPECT_FALSE(decode_query(f.data(), f.size()).has_value());
}

TEST(ServeWireRobustness, BadRegionOpIsRejected) {
  Frame f = encode(QueryMessage{RegionQuery{Extent3{0, 1, 0, 1, 0, 1},
                                            RegionOp::kSum}});
  f[f.size() - 1] = 2;  // op byte: only 0/1 defined
  EXPECT_FALSE(decode_query(f.data(), f.size()).has_value());
}

/// Hand-assembled RegionGridResponse with an attacker-controlled extent.
Frame grid_response_with_extent(const Extent3& e, std::size_t payload_floats) {
  Frame f{'S', 'K', 'W', '1', 0x85, 0x00, 0x00, 0x00, 0, 0, 0, 0};
  auto put32 = [&f](std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      f.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  };
  for (int i = 0; i < 8; ++i) f.push_back(0);  // version
  const char magic[8] = {'S', 'T', 'K', 'D', 'E', 'G', '1', '\0'};
  for (const char c : magic) f.push_back(static_cast<std::uint8_t>(c));
  put32(static_cast<std::uint32_t>(e.xlo));
  put32(static_cast<std::uint32_t>(e.xhi));
  put32(static_cast<std::uint32_t>(e.ylo));
  put32(static_cast<std::uint32_t>(e.yhi));
  put32(static_cast<std::uint32_t>(e.tlo));
  put32(static_cast<std::uint32_t>(e.thi));
  for (std::size_t i = 0; i < payload_floats * 4; ++i) f.push_back(0);
  const auto len = static_cast<std::uint32_t>(f.size() - kHeaderBytes);
  for (int i = 0; i < 4; ++i)
    f[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((len >> (8 * i)) & 0xff);
  return f;
}

TEST(ServeWireRobustness, HostileGridExtentsNeverAllocate) {
  // A tiny frame claiming a huge grid: the decoder must reject it from the
  // length mismatch alone — no multi-GB DensityGrid allocation attempt.
  EXPECT_FALSE(decode_response_as<RegionGridResponse>(
      grid_response_with_extent(Extent3{0, 1 << 20, 0, 1 << 20, 0, 1 << 20},
                                8)));
  // Overflow bait: per-axis lengths that multiply past int64.
  EXPECT_FALSE(decode_response_as<RegionGridResponse>(
      grid_response_with_extent(
          Extent3{-2000000000, 2000000000, -2000000000, 2000000000,
                  -2000000000, 2000000000},
          8)));
  // Empty extents are invalid in grid payloads.
  EXPECT_FALSE(decode_response_as<RegionGridResponse>(
      grid_response_with_extent(Extent3{3, 3, 0, 2, 0, 2}, 0)));
  // Inverted axis.
  EXPECT_FALSE(decode_response_as<RegionGridResponse>(
      grid_response_with_extent(Extent3{2, 0, 0, 2, 0, 2}, 8)));
}

// 2^21 x 2^21 x 2^20 voxels are 2^64 float bytes, which wrap to 0 in
// uint64: a header-only payload must still be refused, not decoded as a
// grid whose size has no storage behind it.
TEST(ServeWireGridPayload, VolumeWhoseByteCountWrapsIsRejected) {
  EXPECT_FALSE(decode_response_as<RegionGridResponse>(
      grid_response_with_extent(Extent3{0, 1 << 21, 0, 1 << 21, 0, 1 << 20},
                                0)));
}

// The frame's size bounds a RegionGrid or a Slice, not a per-axis cap:
// what the encoder emits decodes, however long an axis. 2^21 + 1 floats
// are 8 MB.
TEST(ServeWireLongAxis, RegionGridRoundTrips) {
  RegionGridResponse in;
  in.version = 4;
  in.grid.allocate(Extent3{0, 1, 0, 1, 0, (1 << 21) + 1});
  in.grid.fill(0.25f);
  in.grid.at(0, 0, 1 << 21) = 3.0f;
  DensityGrid sent;
  sent.copy_from(in.grid);
  const auto* m =
      decode_response_as<RegionGridResponse>(encode(ResponseMessage{std::move(in)}));
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->grid.extent(), sent.extent());
  EXPECT_EQ(m->grid.max_abs_diff(sent), 0.0);
}

TEST(ServeWireLongAxis, SliceRoundTrips) {
  SliceResponse in;
  in.version = 5;
  in.field.nx = (1 << 21) + 1;
  in.field.ny = 1;
  in.field.values.assign(static_cast<std::size_t>(in.field.nx), 0.5f);
  in.field.values.back() = 4.0f;
  const std::vector<float> sent = in.field.values;
  const auto* m =
      decode_response_as<SliceResponse>(encode(ResponseMessage{std::move(in)}));
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->field.nx, (1 << 21) + 1);
  EXPECT_EQ(m->field.ny, 1);
  EXPECT_EQ(m->field.values, sent);
}

TEST(ServeWireRobustness, HostileSliceDimsNeverAllocate) {
  SliceResponse in;
  in.version = 1;
  in.field.nx = 2;
  in.field.ny = 2;
  in.field.values = {1, 2, 3, 4};
  Frame f = encode(ResponseMessage{std::move(in)});
  // Patch nx (payload offset 12 after the 12-byte header) to a huge value:
  // the cell count no longer matches the payload, so the decoder rejects
  // before resizing anything.
  f[kHeaderBytes + 12] = 0xff;
  f[kHeaderBytes + 13] = 0xff;
  f[kHeaderBytes + 14] = 0xff;
  f[kHeaderBytes + 15] = 0x7f;
  EXPECT_FALSE(decode_response(f.data(), f.size()).has_value());
}

}  // namespace
}  // namespace stkde::serve::wire
