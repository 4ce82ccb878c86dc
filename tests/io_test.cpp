#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "helpers.hpp"
#include "io/bytes.hpp"
#include "io/grid_io.hpp"
#include "io/pgm.hpp"
#include "io/slice.hpp"
#include "io/vtk.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"

namespace stkde::io {
namespace {

DensityGrid sample_grid() {
  DensityGrid g(GridDims{4, 3, 5});
  g.fill(0.0f);
  g.at(1, 2, 3) = 2.0f;
  g.at(0, 0, 0) = 1.0f;
  g.at(3, 1, 4) = 0.5f;
  return g;
}

TEST(Slice, TimeSliceExtractsPlane) {
  const DensityGrid g = sample_grid();
  const Field2D f = time_slice(g, 3);
  EXPECT_EQ(f.nx, 4);
  EXPECT_EQ(f.ny, 3);
  EXPECT_FLOAT_EQ(f.at(1, 2), 2.0f);
  EXPECT_FLOAT_EQ(f.at(0, 0), 0.0f);
}

TEST(Slice, TimeSliceOutOfRangeThrows) {
  const DensityGrid g = sample_grid();
  EXPECT_THROW(time_slice(g, 5), std::out_of_range);
  EXPECT_THROW(time_slice(g, -1), std::out_of_range);
}

TEST(Slice, AggregateSumsOverT) {
  const DensityGrid g = sample_grid();
  const Field2D f = time_aggregate(g);
  EXPECT_FLOAT_EQ(f.at(1, 2), 2.0f);
  EXPECT_FLOAT_EQ(f.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(f.at(3, 1), 0.5f);
  double total = 0;
  for (const float v : f.values) total += v;
  EXPECT_NEAR(total, g.sum(), 1e-6);
}

TEST(Slice, AggregateOfSlicesEqualsAggregate) {
  const DensityGrid g = sample_grid();
  const Field2D agg = time_aggregate(g);
  std::vector<double> manual(agg.values.size(), 0.0);
  for (std::int32_t t = 0; t < 5; ++t) {
    const Field2D s = time_slice(g, t);
    for (std::size_t i = 0; i < s.values.size(); ++i) manual[i] += s.values[i];
  }
  for (std::size_t i = 0; i < manual.size(); ++i)
    EXPECT_NEAR(manual[i], agg.values[i], 1e-6);
}

TEST(Slice, FieldCsvHasHeaderAndAllCells) {
  const Field2D f = time_aggregate(sample_grid());
  std::ostringstream os;
  write_field_csv(os, f);
  std::istringstream is(os.str());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "x,y,value");
  int rows = 0;
  while (std::getline(is, line)) ++rows;
  EXPECT_EQ(rows, 12);  // 4 * 3
}

TEST(Pgm, WritesValidHeaderAndSize) {
  const std::string path = ::testing::TempDir() + "/stkde_test.pgm";
  write_pgm(path, time_aggregate(sample_grid()));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  int w, h, maxv;
  in >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 4);
  EXPECT_EQ(h, 3);
  EXPECT_EQ(maxv, 255);
  in.get();  // the single whitespace after maxval
  std::vector<char> pixels(static_cast<std::size_t>(w) * h);
  in.read(pixels.data(), static_cast<std::streamsize>(pixels.size()));
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(pixels.size()));
  std::remove(path.c_str());
}

TEST(Pgm, PeakMapsToWhite) {
  const std::string path = ::testing::TempDir() + "/stkde_test_peak.pgm";
  Field2D f;
  f.nx = 2;
  f.ny = 1;
  f.values = {0.0f, 10.0f};
  write_pgm(path, f, 1.0);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w, h, maxv;
  in >> magic >> w >> h >> maxv;
  in.get();
  unsigned char px[2];
  in.read(reinterpret_cast<char*>(px), 2);
  EXPECT_EQ(px[0], 0);
  EXPECT_EQ(px[1], 255);
  std::remove(path.c_str());
}

TEST(Vtk, WritesHeaderWithDimensionsAndSpacing) {
  const std::string path = ::testing::TempDir() + "/stkde_test.vtk";
  const DensityGrid g = sample_grid();
  const DomainSpec spec{10, 20, 30, 4, 3, 5, 2.0, 1.5};
  write_vtk(path, g, spec);
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("DATASET STRUCTURED_POINTS"), std::string::npos);
  EXPECT_NE(content.find("DIMENSIONS 4 3 5"), std::string::npos);
  EXPECT_NE(content.find("ORIGIN 10 20 30"), std::string::npos);
  EXPECT_NE(content.find("SPACING 2 2 1.5"), std::string::npos);
  EXPECT_NE(content.find("POINT_DATA 60"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Vtk, StrideSubsamples) {
  const std::string path = ::testing::TempDir() + "/stkde_test_stride.vtk";
  DensityGrid g(GridDims{8, 8, 8});
  g.fill(1.0f);
  const DomainSpec spec{0, 0, 0, 8, 8, 8, 1.0, 1.0};
  write_vtk(path, g, spec, 2);
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("DIMENSIONS 4 4 4"), std::string::npos);
  EXPECT_NE(content.find("SPACING 2 2 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Vtk, RejectsBadStride) {
  const DensityGrid g = sample_grid();
  EXPECT_THROW(write_vtk("/tmp/x.vtk", g, DomainSpec{}, 0),
               std::invalid_argument);
}

TEST(GridIo, RoundTripsBitExactly) {
  const std::string path = ::testing::TempDir() + "/stkde_test.grid";
  DensityGrid g(Extent3{2, 6, 1, 4, 0, 7});
  util::Xoshiro256 rng(3);
  for (std::int64_t i = 0; i < g.size(); ++i)
    g.data()[i] = static_cast<float>(rng.uniform(-5, 5));
  save_grid(path, g);
  const DensityGrid loaded = load_grid(path);
  EXPECT_EQ(loaded.extent(), g.extent());
  EXPECT_DOUBLE_EQ(loaded.max_abs_diff(g), 0.0);
  std::remove(path.c_str());
}

TEST(GridIo, PaddedGridSavesDensePayload) {
  // The on-disk format is always dense: a padded grid must round-trip to a
  // file byte-identical with its packed twin's.
  const std::string path = ::testing::TempDir() + "/stkde_padded.grid";
  DensityGrid padded;
  padded.allocate(Extent3{0, 3, 0, 4, 0, 5}, RowPad::kCacheLine);
  ASSERT_TRUE(padded.padded());
  padded.fill(0.0f);
  util::Xoshiro256 rng(9);
  for (std::int32_t x = 0; x < 3; ++x)
    for (std::int32_t y = 0; y < 4; ++y)
      for (std::int32_t t = 0; t < 5; ++t)
        padded.at(x, y, t) = static_cast<float>(rng.uniform(-5, 5));
  save_grid(path, padded);
  const DensityGrid loaded = load_grid(path);
  EXPECT_FALSE(loaded.padded());
  EXPECT_EQ(loaded.extent(), padded.extent());
  EXPECT_DOUBLE_EQ(loaded.max_abs_diff(padded), 0.0);
  std::remove(path.c_str());
}

TEST(GridIo, BadMagicRejected) {
  const std::string path = ::testing::TempDir() + "/stkde_bad.grid";
  std::ofstream(path) << "not a grid file at all";
  EXPECT_THROW(load_grid(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GridIo, TruncatedPayloadRejected) {
  const std::string path = ::testing::TempDir() + "/stkde_trunc.grid";
  DensityGrid g(GridDims{4, 4, 4});
  g.fill(1.0f);
  save_grid(path, g);
  // Truncate the file.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary)
      << content.substr(0, content.size() / 2);
  EXPECT_THROW(load_grid(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GridIo, MissingFileThrows) {
  EXPECT_THROW(load_grid("/nonexistent/grid.bin"), std::runtime_error);
}

// The grid file format byte for byte: magic "STKDEG1\0", six little-endian
// int32 bounds, then little-endian floats in T-innermost order, dense even
// when the grid's rows are padded in memory.
TEST(GridIo, GoldenFileBytesFromPackedAndPaddedGrids) {
  const Extent3 e{1, 3, 0, 2, -1, 1};
  const float values[8] = {1.0f, -2.0f, 0.5f, 0.25f, 3.0f, 1.5f, -0.75f, 8.0f};
  const std::string golden =
      "53544b4445473100"                                  // "STKDEG1\0"
      "01000000" "03000000" "00000000" "02000000"         // x [1,3) y [0,2)
      "ffffffff" "01000000"                               // t [-1,1)
      "0000803f" "000000c0" "0000003f" "0000803e"         // x = 1
      "00004040" "0000c03f" "000040bf" "00000041";        // x = 2
  for (const RowPad pad : {RowPad::kNone, RowPad::kCacheLine}) {
    DensityGrid g;
    g.allocate(e, pad);
    ASSERT_EQ(g.padded(), pad == RowPad::kCacheLine);
    g.fill(0.0f);
    int i = 0;
    for (std::int32_t x = e.xlo; x < e.xhi; ++x)
      for (std::int32_t y = e.ylo; y < e.yhi; ++y)
        for (std::int32_t t = e.tlo; t < e.thi; ++t)
          g.at(x, y, t) = values[i++];
    const std::string path = ::testing::TempDir() + "/stkde_golden.grid";
    save_grid(path, g);
    EXPECT_EQ(stkde::testing::file_hex(path), golden)
        << "padded=" << g.padded();
    std::remove(path.c_str());
  }
}

// A header whose extent is absurd must be refused before the grid is
// allocated: the declared volume has to match the file's size exactly.
// A 1 MiB budget turns any allocation attempt into MemoryBudgetExceeded,
// which the test tells apart from the format error.
TEST(GridIo, HostileHeaderThrowsWithoutAllocating) {
  const std::string path = ::testing::TempDir() + "/stkde_hostile.grid";
  const auto write_header = [&](const std::int32_t (&bounds)[6]) {
    std::string bytes("STKDEG1", 8);
    for (const std::int32_t b : bounds)
      for (int k = 0; k < 4; ++k)
        bytes += static_cast<char>((static_cast<std::uint32_t>(b) >> (8 * k)) &
                                   0xffu);
    std::ofstream(path, std::ios::binary) << bytes;  // header, no floats
  };
  const std::int32_t huge[6] = {0, 1 << 30, 0, 1 << 30, 0, 16};
  const std::int32_t wide[6] = {std::numeric_limits<std::int32_t>::min(), 1,
                                0, 2, 0, 2};
  // 2^62 floats are 2^64 bytes: a byte count taken by multiplying wraps
  // to 0, the size of this payload.
  const std::int32_t wraps[6] = {0, 1 << 21, 0, 1 << 21, 0, 1 << 20};
  stkde::testing::ScopedMemoryBudget guard(1 << 20);
  for (const auto* bounds : {&huge, &wide, &wraps}) {
    write_header(*bounds);
    try {
      const DensityGrid g = load_grid(path);
      ADD_FAILURE() << "loaded a grid of size " << g.size();
    } catch (const util::MemoryBudgetExceeded& e) {
      ADD_FAILURE() << "allocated before validating: " << e.what();
    } catch (const std::runtime_error& e) {
      SUCCEED() << e.what();
    }
  }
  std::remove(path.c_str());
}

// Once a read has overrun, every later read is refused, f32s included: it
// neither copies nor advances, so a decoder may check `fail` once at the
// end of a record.
TEST(Bytes, ReadsAfterAnOverrunAreRefused) {
  const Bytes b = {0, 0, 128, 63, 0, 0, 0, 64};  // f32 1.0, f32 2.0
  Reader r{b.data(), b.size()};
  EXPECT_EQ(r.bytes(b.size() + 1), nullptr);
  float out[2] = {-1.0f, -1.0f};
  r.f32s(out, 2);
  EXPECT_TRUE(r.fail);
  EXPECT_EQ(r.off, 0u);
  EXPECT_EQ(out[0], -1.0f);
  EXPECT_EQ(out[1], -1.0f);
  EXPECT_EQ(r.u32(), 0u);
}

// Every grid save_grid() writes loads, however long an axis: the loader's
// only bound is the file's size. 2^21 + 1 time steps are 8 MB.
TEST(GridIo, LongAxisRoundTrips) {
  const std::string path = ::testing::TempDir() + "/stkde_long.grid";
  DensityGrid g(Extent3{0, 1, 0, 1, 0, (1 << 21) + 1});
  for (std::int64_t i = 0; i < g.size(); ++i)
    g.data()[i] = static_cast<float>(i % 1000);
  save_grid(path, g);
  const DensityGrid loaded = load_grid(path);
  EXPECT_EQ(loaded.extent(), g.extent());
  EXPECT_DOUBLE_EQ(loaded.max_abs_diff(g), 0.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stkde::io
