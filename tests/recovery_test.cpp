/// Fault-tolerance battery (docs/ROBUSTNESS.md): WAL framing and torn-tail
/// repair, durable checkpoint/recovery round trips, ingest admission +
/// quarantine, serve-side graceful degradation, and — in failpoint builds —
/// the chaos matrix: crash the estimator at every registered site mid-run
/// and prove a fresh estimator recovers to within 1e-5 of an uninterrupted
/// reference. Labeled `chaos` in CTest; every non-failpoint test also runs
/// in default (STKDE_FAILPOINTS=OFF) builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/durability.hpp"
#include "core/incremental.hpp"
#include "helpers.hpp"
#include "io/checked_io.hpp"
#include "io/wal.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/snapshot_registry.hpp"
#include "serve/wire.hpp"
#include "util/failpoint.hpp"

namespace stkde {
namespace {

namespace fp = util::failpoint;
namespace fs = std::filesystem;
namespace wire = serve::wire;

// TSan multiplies every run by ~10x; the chaos matrix feeds each stream
// dozens of times, so it scales its event count down there. The Release
// matrix keeps the acceptance-scale 100k+ event stream.
#if defined(__SANITIZE_THREAD__)
#define STKDE_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STKDE_TSAN_BUILD 1
#endif
#endif

#ifdef STKDE_TSAN_BUILD
constexpr std::size_t kMatrixEventsSerial = 20'000;
constexpr std::size_t kMatrixEventsSharded = 10'000;
#else
constexpr std::size_t kMatrixEventsSerial = 100'000;
constexpr std::size_t kMatrixEventsSharded = 30'000;
#endif

/// A scratch durability directory, wiped of any prior incarnation's files.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "stkde_rec_" + name;
  fs::create_directories(dir);
  core::DurableLog::reset_dir(dir);
  return dir;
}

/// The one WAL file in \p dir (generation-agnostic lookup for tests that
/// corrupt the tail by hand).
std::string find_wal(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal.", 0) == 0) return entry.path().string();
  }
  ADD_FAILURE() << "no WAL file under " << dir;
  return {};
}

void append_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

// ---------------------------------------------------------------------------
// A deterministic sliding-window feed, expressed as a numbered op list so
// an at-least-once feeder can resume from any committed batch sequence:
// op k (0-based) commits batch_seq k+1.

struct Op {
  enum Kind : std::uint8_t { kAdd, kAdvance, kRemove } kind = kAdd;
  PointSet pts;
  double cutoff = 0.0;
};

std::vector<Op> make_ops(PointSet stream, std::size_t batch, double window) {
  std::sort(stream.begin(), stream.end(),
            [](const Point& a, const Point& b) { return a.t < b.t; });
  std::vector<Op> ops;
  for (std::size_t lo = 0; lo < stream.size(); lo += batch) {
    const std::size_t hi = std::min(stream.size(), lo + batch);
    PointSet chunk(stream.begin() + static_cast<std::ptrdiff_t>(lo),
                   stream.begin() + static_cast<std::ptrdiff_t>(hi));
    if (ops.empty()) {
      ops.push_back(Op{Op::kAdd, std::move(chunk), 0.0});
    } else {
      const double cut = chunk.back().t - window;
      ops.push_back(Op{Op::kAdvance, std::move(chunk), cut});
    }
  }
  // One mid-stream removal of still-live events, so the kRemove WAL path
  // carries real instances (not just misses).
  const std::size_t m = ops.size() / 2;
  if (m >= 1) {
    const PointSet& src = ops[m - 1].pts;
    PointSet victims(
        src.begin(),
        src.begin() + static_cast<std::ptrdiff_t>(
                          std::min<std::size_t>(25, src.size())));
    ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(m),
               Op{Op::kRemove, std::move(victims), 0.0});
  }
  return ops;
}

void apply_op(core::IncrementalEstimator& est, const Op& op) {
  switch (op.kind) {
    case Op::kAdd:
      est.add(op.pts);
      return;
    case Op::kAdvance:
      est.advance_window(op.pts, op.cutoff);
      return;
    case Op::kRemove:
      est.remove(op.pts);
      return;
  }
}

void feed(core::IncrementalEstimator& est, const std::vector<Op>& ops,
          std::size_t from) {
  for (std::size_t k = from; k < ops.size(); ++k) apply_op(est, ops[k]);
}

io::WalRecord make_record(io::WalRecordType type, std::uint64_t seq,
                          double cutoff, PointSet pts) {
  io::WalRecord r;
  r.type = type;
  r.seq = seq;
  r.cutoff = cutoff;
  r.points = std::move(pts);
  return r;
}

// ---------------------------------------------------------------------------
// WAL framing

TEST(Wal, RoundTripsRecordsExactly) {
  const std::string dir = fresh_dir("wal_roundtrip");
  const std::string path = dir + "/wal.0.log";
  const PointSet a = {{1.5, 2.5, 3.5}, {-1.0, 0.0, 42.0}};
  const PointSet b = {{7.0, 8.0, 9.0}};
  {
    io::WalWriter w(path, io::WalSync::kNone, /*truncate=*/true);
    w.append(make_record(io::WalRecordType::kAdd, 1, 0.0, a));
    w.append(make_record(io::WalRecordType::kAdvance, 2, 3.25, b));
    w.append(make_record(io::WalRecordType::kRemove, 3, 0.0, {}));
    EXPECT_EQ(w.records(), 3u);
  }
  const io::WalReplay rep = io::read_wal(path);
  EXPECT_FALSE(rep.torn);
  EXPECT_EQ(rep.valid_bytes, rep.file_bytes);
  ASSERT_EQ(rep.records.size(), 3u);
  EXPECT_EQ(rep.records[0].type, io::WalRecordType::kAdd);
  EXPECT_EQ(rep.records[0].seq, 1u);
  ASSERT_EQ(rep.records[0].points.size(), 2u);
  EXPECT_EQ(rep.records[0].points[1], a[1]);
  EXPECT_EQ(rep.records[1].type, io::WalRecordType::kAdvance);
  EXPECT_DOUBLE_EQ(rep.records[1].cutoff, 3.25);
  EXPECT_EQ(rep.records[1].points[0], b[0]);
  EXPECT_EQ(rep.records[2].type, io::WalRecordType::kRemove);
  EXPECT_TRUE(rep.records[2].points.empty());
}

// The WAL format byte for byte, one record of each type after the magic
// "STKDEWL1": u32 CRC-32 of the rest of the record, u16 type, u16 reserved,
// u64 seq, u32 count, f64 cutoff (advance only), count x f64 {x, y, t},
// all little-endian.
TEST(Wal, GoldenBytesOfEachRecordType) {
  const std::string dir = fresh_dir("wal_golden");
  const std::string path = dir + "/wal.0.log";
  {
    io::WalWriter w(path, io::WalSync::kNone, /*truncate=*/true);
    w.append(make_record(io::WalRecordType::kAdd, 1, 0.0, {{1.5, -2.0, 3.25}}));
    w.append(
        make_record(io::WalRecordType::kAdvance, 2, 0.5, {{4.0, 0.25, 8.0}}));
    w.append(
        make_record(io::WalRecordType::kRemove, 3, 0.0, {{1.5, -2.0, 3.25}}));
  }
  const std::string golden =
      "53544b4445574c31"  // "STKDEWL1"
      // add: crc, type 1, reserved, seq 1, count 1, (1.5, -2, 3.25)
      "bb68bb69" "0100" "0000" "0100000000000000" "01000000"
      "000000000000f83f" "00000000000000c0" "0000000000000a40"
      // advance: crc, type 2, reserved, seq 2, count 1, cutoff 0.5,
      // (4, 0.25, 8)
      "d00b4765" "0200" "0000" "0200000000000000" "01000000"
      "000000000000e03f"
      "0000000000001040" "000000000000d03f" "0000000000002040"
      // remove: crc, type 3, reserved, seq 3, count 1, (1.5, -2, 3.25)
      "1fe5d31d" "0300" "0000" "0300000000000000" "01000000"
      "000000000000f83f" "00000000000000c0" "0000000000000a40";
  EXPECT_EQ(stkde::testing::file_hex(path), golden);
}

TEST(Wal, MissingFileIsAnEmptyReplay) {
  const io::WalReplay rep = io::read_wal("/nonexistent/stkde/wal.0.log");
  EXPECT_TRUE(rep.records.empty());
  EXPECT_FALSE(rep.torn);
  EXPECT_EQ(rep.file_bytes, 0u);
}

TEST(Wal, ForeignMagicThrowsInsteadOfTruncating) {
  const std::string dir = fresh_dir("wal_foreign");
  const std::string path = dir + "/wal.0.log";
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOTAWAL!garbage";
  }
  EXPECT_THROW((void)io::read_wal(path), std::runtime_error);
}

TEST(Wal, TornTailIsDetectedAndTruncated) {
  const std::string dir = fresh_dir("wal_torn");
  const std::string path = dir + "/wal.0.log";
  {
    io::WalWriter w(path, io::WalSync::kNone, /*truncate=*/true);
    w.append(make_record(io::WalRecordType::kAdd, 1, 0.0, {{1, 2, 3}}));
    w.append(make_record(io::WalRecordType::kAdd, 2, 0.0, {{4, 5, 6}}));
  }
  // A crash mid-append: a few bytes of the next record made it to disk.
  append_bytes(path, std::vector<char>(11, '\xAB'));
  io::WalReplay rep = io::read_wal(path);
  EXPECT_TRUE(rep.torn);
  ASSERT_EQ(rep.records.size(), 2u);
  EXPECT_LT(rep.valid_bytes, rep.file_bytes);

  io::truncate_wal(path, rep.valid_bytes);
  rep = io::read_wal(path);
  EXPECT_FALSE(rep.torn);
  EXPECT_EQ(rep.records.size(), 2u);
  EXPECT_EQ(rep.valid_bytes, rep.file_bytes);

  // The repaired log accepts appends again.
  {
    io::WalWriter w(path, io::WalSync::kNone);
    w.append(make_record(io::WalRecordType::kAdd, 3, 0.0, {{7, 8, 9}}));
  }
  EXPECT_EQ(io::read_wal(path).records.size(), 3u);
}

TEST(Wal, CorruptMidFileRecordStopsTheScan) {
  const std::string dir = fresh_dir("wal_corrupt");
  const std::string path = dir + "/wal.0.log";
  {
    io::WalWriter w(path, io::WalSync::kNone, /*truncate=*/true);
    w.append(make_record(io::WalRecordType::kAdd, 1, 0.0, {{1, 2, 3}, {4, 5, 6}}));
    w.append(make_record(io::WalRecordType::kAdd, 2, 0.0, {{7, 8, 9}}));
  }
  // Record 1: 20-byte header + 2 x 24-byte points = 68 bytes after the
  // 8-byte magic. Flip a payload byte inside record 2.
  flip_byte(path, 8 + 68 + 30);
  const io::WalReplay rep = io::read_wal(path);
  EXPECT_TRUE(rep.torn);
  ASSERT_EQ(rep.records.size(), 1u);
  EXPECT_EQ(rep.records[0].seq, 1u);
}

// ---------------------------------------------------------------------------
// Checked stdio (io/checked_io.hpp): the single error path the WAL and the
// checkpoint writer share. A short write — disk full, closed stream — must
// throw with errno's text attached, not silently drop bytes.

TEST(CheckedIo, ShortWriteThrowsWithErrnoDetail) {
  const std::string dir = fresh_dir("checked_io_short");
  const std::string path = dir + "/victim.bin";
  { std::ofstream(path) << "seed"; }
  // A stream opened read-only makes every fwrite a deterministic short
  // write (0 of n bytes land), the same observable as ENOSPC mid-buffer.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  const char payload[] = "payload";
  try {
    io::checked_write(f, payload, sizeof(payload), "wal", path);
    std::fclose(f);
    FAIL() << "short write must throw";
  } catch (const std::runtime_error& e) {
    std::fclose(f);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("wal: write failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
  }
}

TEST(CheckedIo, ZeroByteWriteIsANoOp) {
  const std::string dir = fresh_dir("checked_io_zero");
  const std::string path = dir + "/victim.bin";
  std::FILE* f = std::fopen(path.c_str(), "rb");  // nonexistent is fine too
  if (f == nullptr) f = std::fopen((dir + "/other.bin").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  EXPECT_NO_THROW(io::checked_write(f, nullptr, 0, "wal", path));
  std::fclose(f);
}

TEST(CheckedIo, WalAppendSurfacesShortWriteAsRuntimeError) {
  const std::string dir = fresh_dir("checked_io_wal");
  const std::string path = dir + "/wal.0.log";
  auto w = std::make_unique<io::WalWriter>(path, io::WalSync::kNone,
                                           /*truncate=*/true);
  // Yank the file out from under the writer's buffered stream: make the
  // next flush fail the way a full disk would. freopen to read-only mode
  // on the same FILE keeps the pointer valid but write-hostile.
  ASSERT_NE(std::freopen(path.c_str(), "rb", w->file_for_test()), nullptr);
  EXPECT_THROW(
      w->append(make_record(io::WalRecordType::kAdd, 1, 0.0, {{1, 2, 3}})),
      std::runtime_error);
  // Destructor must still be safe after the failed append.
  EXPECT_NO_THROW(w.reset());
}

// ---------------------------------------------------------------------------
// DurableLog: checkpoint + WAL generations

TEST(DurableLog, CheckpointRotatesGenerationsAndRecovers) {
  const std::string dir = fresh_dir("durlog_rotate");
  const PointSet live = {{1, 2, 3}, {4, 5, 6}};
  DensityGrid grid(Extent3{0, 4, 0, 3, 0, 2});
  grid.fill(3.25f);
  {
    core::DurableLog log(dir, io::WalSync::kNone);
    EXPECT_FALSE(log.has_prior_state());
    log.append(make_record(io::WalRecordType::kAdd, 1, 0.0, {{1, 2, 3}}));
    log.append(make_record(io::WalRecordType::kAdvance, 2, 1.5, {{4, 5, 6}}));
    log.checkpoint(2, 1.5, live, grid);
    EXPECT_EQ(log.generation(), 1u);
    // Post-rotation records land in the new generation's log.
    log.append(make_record(io::WalRecordType::kAdd, 3, 0.0, {{7, 8, 9}}));
    // The superseded generation-0 log is gone.
    EXPECT_FALSE(fs::exists(dir + "/wal.0.log"));
  }
  core::DurableLog log2(dir, io::WalSync::kNone);
  EXPECT_TRUE(log2.has_prior_state());
  const core::DurableLog::Recovered rec = log2.recover();
  EXPECT_TRUE(rec.have_checkpoint);
  EXPECT_EQ(rec.gen, 1u);
  EXPECT_EQ(rec.last_seq, 2u);
  EXPECT_DOUBLE_EQ(rec.last_cutoff, 1.5);
  ASSERT_EQ(rec.live.size(), 2u);
  EXPECT_EQ(rec.live[1], live[1]);
  EXPECT_EQ(rec.grid.at(0, 0, 0), 3.25f);
  EXPECT_EQ(rec.grid.max_abs_diff(grid), 0.0);
  ASSERT_EQ(rec.tail.size(), 1u);
  EXPECT_EQ(rec.tail[0].seq, 3u);
  EXPECT_FALSE(rec.torn);
}

// The checkpoint format byte for byte: magic "STKDECP1", u64 generation,
// u64 last seq, f64 last cutoff, u64 live count and its f64 {x, y, t}
// points, the grid file's dense payload, then the CRC-32 of everything
// after the magic, all little-endian.
TEST(DurableLog, GoldenCheckpointBytes) {
  const std::string dir = fresh_dir("durlog_golden");
  DensityGrid grid(Extent3{0, 2, 0, 1, 0, 2});
  grid.at(0, 0, 0) = 1.0f;
  grid.at(0, 0, 1) = -2.0f;
  grid.at(1, 0, 0) = 0.5f;
  grid.at(1, 0, 1) = 0.25f;
  {
    core::DurableLog log(dir, io::WalSync::kNone);
    log.checkpoint(7, 2.5, {{1.5, -2.0, 3.25}}, grid);
  }
  const std::string golden =
      "53544b4445435031"  // "STKDECP1"
      "0100000000000000"  // generation 1
      "0700000000000000"  // last seq 7
      "0000000000000440"  // last cutoff 2.5
      "0100000000000000"  // one live point: (1.5, -2, 3.25)
      "000000000000f83f" "00000000000000c0" "0000000000000a40"
      "53544b4445473100"  // grid payload: "STKDEG1\0", [0,2) [0,1) [0,2)
      "00000000" "02000000" "00000000" "01000000" "00000000" "02000000"
      "0000803f" "000000c0" "0000003f" "0000803e"
      "854643f6";  // CRC-32
  EXPECT_EQ(stkde::testing::file_hex(dir + "/checkpoint.ck"), golden);
}

// A checkpoint recover() refused would strand the durable state: the
// previous WAL generation is gone once the checkpoint commits. So every
// grid a checkpoint holds must read back, however long an axis.
TEST(DurableLog, LongAxisGridRecovers) {
  const std::string dir = fresh_dir("durlog_long");
  DensityGrid grid(Extent3{0, 1, 0, 1, 0, (1 << 21) + 1});
  grid.fill(0.5f);
  grid.at(0, 0, 1 << 21) = 2.0f;
  {
    core::DurableLog log(dir, io::WalSync::kNone);
    log.checkpoint(3, 1.0, {{0.5, 0.5, 0.5}}, grid);
  }
  core::DurableLog log2(dir, io::WalSync::kNone);
  const core::DurableLog::Recovered rec = log2.recover();
  ASSERT_TRUE(rec.have_checkpoint);
  EXPECT_EQ(rec.grid.extent(), grid.extent());
  EXPECT_EQ(rec.grid.max_abs_diff(grid), 0.0);
}

TEST(DurableLog, PriorStateRefusesAppendUntilRecovered) {
  const std::string dir = fresh_dir("durlog_latch");
  {
    core::DurableLog log(dir, io::WalSync::kNone);
    log.append(make_record(io::WalRecordType::kAdd, 1, 0.0, {{1, 2, 3}}));
  }
  core::DurableLog log2(dir, io::WalSync::kNone);
  ASSERT_TRUE(log2.has_prior_state());
  // Silently interleaving a new history into the old log is the one
  // corruption this layer cannot detect after the fact.
  EXPECT_THROW(
      log2.append(make_record(io::WalRecordType::kAdd, 1, 0.0, {{9, 9, 9}})),
      std::logic_error);
  (void)log2.recover();
  EXPECT_NO_THROW(
      log2.append(make_record(io::WalRecordType::kAdd, 2, 0.0, {{9, 9, 9}})));
}

TEST(DurableLog, CorruptCheckpointThrowsOnRecover) {
  const std::string dir = fresh_dir("durlog_corrupt");
  DensityGrid grid(Extent3{0, 4, 0, 3, 0, 2});
  grid.fill(1.0f);
  {
    core::DurableLog log(dir, io::WalSync::kNone);
    log.checkpoint(5, 2.0, {{1, 2, 3}}, grid);
  }
  const std::string ck = dir + "/checkpoint.ck";
  flip_byte(ck, fs::file_size(ck) / 2);
  core::DurableLog log2(dir, io::WalSync::kNone);
  EXPECT_THROW((void)log2.recover(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Estimator recovery (no fault injection): durable state reconstructs the
// uninterrupted stream.

TEST(Recovery, RecoverRestoresUninterruptedStream) {
  const auto tiny = stkde::testing::make_tiny(4000, 3, 2);
  const auto ops = make_ops(tiny.points, 200, /*window=*/4.0);
  const std::string dir = fresh_dir("rec_roundtrip");

  core::StreamConfig cfg;
  cfg.durability.dir = dir;
  cfg.durability.checkpoint_events = 1700;  // several mid-run checkpoints

  DensityGrid final_grid(tiny.domain.dims());
  std::size_t final_live = 0;
  {
    core::IncrementalEstimator a(tiny.domain, tiny.params, cfg);
    feed(a, ops, 0);
    final_grid = a.snapshot();
    final_live = a.live_count();
    EXPECT_EQ(a.batch_seq(), ops.size());
    EXPECT_GT(a.stats().durable_checkpoints, 0u);
    EXPECT_GT(a.stats().wal_records, 0u);
  }

  core::IncrementalEstimator b(tiny.domain, tiny.params, cfg);
  const core::RecoverReport rep = b.recover();
  EXPECT_TRUE(rep.checkpoint_loaded);
  EXPECT_GT(rep.batches_replayed, 0u);
  EXPECT_FALSE(rep.wal_torn);
  EXPECT_EQ(rep.last_batch_seq, ops.size());
  EXPECT_EQ(b.batch_seq(), ops.size());
  EXPECT_EQ(b.live_count(), final_live);
  const double tol = 1e-5 * static_cast<double>(final_grid.max_value());
  EXPECT_LE(b.snapshot().max_abs_diff(final_grid), tol);

  // The recovered estimator keeps streaming: the feeder resumes at
  // last_batch_seq + 1 (here: one brand-new batch).
  const std::size_t live_before = b.live_count();
  b.add(PointSet{ops.back().pts.begin(), ops.back().pts.begin() + 5});
  EXPECT_EQ(b.batch_seq(), ops.size() + 1);
  EXPECT_GE(b.live_count(), live_before);
}

TEST(Recovery, EmptyDirectoryIsAFreshStart) {
  const auto tiny = stkde::testing::make_tiny(64, 3, 2);
  const std::string dir = fresh_dir("rec_empty");
  core::StreamConfig cfg;
  cfg.durability.dir = dir;
  core::IncrementalEstimator est(tiny.domain, tiny.params, cfg);
  const core::RecoverReport rep = est.recover();
  EXPECT_FALSE(rep.checkpoint_loaded);
  EXPECT_EQ(rep.batches_replayed, 0u);
  EXPECT_EQ(rep.last_batch_seq, 0u);
  // "Recover-or-start" is one call: the stream is live afterwards.
  est.add(tiny.points);
  EXPECT_EQ(est.live_count(), tiny.points.size());
  EXPECT_EQ(est.batch_seq(), 1u);
}

TEST(Recovery, RecoveryIsIdempotent) {
  const auto tiny = stkde::testing::make_tiny(2000, 3, 2);
  const auto ops = make_ops(tiny.points, 250, /*window=*/4.0);
  const std::string dir = fresh_dir("rec_idempotent");
  core::StreamConfig cfg;
  cfg.durability.dir = dir;
  cfg.durability.checkpoint_events = 1500;
  {
    core::IncrementalEstimator a(tiny.domain, tiny.params, cfg);
    feed(a, ops, 0);
  }
  DensityGrid first(tiny.domain.dims());
  std::size_t first_live = 0;
  {
    core::IncrementalEstimator b(tiny.domain, tiny.params, cfg);
    (void)b.recover();
    first = b.snapshot();
    first_live = b.live_count();
  }
  // Recovery reads, repairs, and reopens — it must not change what a second
  // recovery sees. Serial replay is deterministic: bit-identical grids.
  core::IncrementalEstimator c(tiny.domain, tiny.params, cfg);
  (void)c.recover();
  EXPECT_EQ(c.live_count(), first_live);
  EXPECT_EQ(c.snapshot().max_abs_diff(first), 0.0);
}

TEST(Recovery, TornWalTailIsTruncatedOnRecover) {
  const auto tiny = stkde::testing::make_tiny(2000, 3, 2);
  const auto ops = make_ops(tiny.points, 250, /*window=*/4.0);
  const std::string dir = fresh_dir("rec_torn");
  core::StreamConfig cfg;
  cfg.durability.dir = dir;
  cfg.durability.checkpoint_events = 0;  // no rotation: wal.0.log holds all
  DensityGrid final_grid(tiny.domain.dims());
  std::size_t final_live = 0;
  {
    core::IncrementalEstimator a(tiny.domain, tiny.params, cfg);
    feed(a, ops, 0);
    final_grid = a.snapshot();
    final_live = a.live_count();
  }
  // Process death mid-append: garbage prefix of a record at the tail.
  append_bytes(find_wal(dir), std::vector<char>(13, '\x7F'));

  core::IncrementalEstimator b(tiny.domain, tiny.params, cfg);
  const core::RecoverReport rep = b.recover();
  EXPECT_TRUE(rep.wal_torn);
  EXPECT_GT(rep.truncated_bytes, 0u);
  EXPECT_EQ(rep.last_batch_seq, ops.size());
  EXPECT_EQ(b.live_count(), final_live);
  const double tol = 1e-5 * static_cast<double>(final_grid.max_value());
  EXPECT_LE(b.snapshot().max_abs_diff(final_grid), tol);
}

TEST(Recovery, UsedEstimatorRefusesRecover) {
  const auto tiny = stkde::testing::make_tiny(32, 3, 2);
  const std::string dir = fresh_dir("rec_used");
  core::StreamConfig cfg;
  cfg.durability.dir = dir;
  core::IncrementalEstimator est(tiny.domain, tiny.params, cfg);
  est.add(tiny.points);
  EXPECT_THROW((void)est.recover(), std::logic_error);
}

TEST(Recovery, MismatchedDomainIsRejected) {
  const auto tiny = stkde::testing::make_tiny(200, 3, 2);
  const std::string dir = fresh_dir("rec_mismatch");
  core::StreamConfig cfg;
  cfg.durability.dir = dir;
  {
    core::IncrementalEstimator a(tiny.domain, tiny.params, cfg);
    a.add(tiny.points);
    a.durable_checkpoint();
  }
  // A grid checkpointed for one domain must never be poured into another.
  DomainSpec other = tiny.domain;
  other.gx += 4;
  core::IncrementalEstimator b(other, tiny.params, cfg);
  EXPECT_THROW((void)b.recover(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Ingest admission + quarantine

TEST(Quarantine, AdmissionRejectsAndCountsByReason) {
  const auto tiny = stkde::testing::make_tiny(8, 3, 2);
  core::StreamConfig cfg;
  core::IncrementalEstimator est(tiny.domain, tiny.params, cfg);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  est.add({{5, 5, 5}, {nan, 1, 1}, {500, 500, 5}, {6, 6, 6}});
  EXPECT_EQ(est.live_count(), 2u);
  EXPECT_EQ(est.stats().quarantined_nonfinite, 1u);
  EXPECT_EQ(est.stats().quarantined_domain, 1u);

  // Slide the window to t >= 8, then feed an event that is already expired:
  // stale, quarantined, and counted dead-on-arrival.
  est.advance_window({{7, 7, 9}}, 8.0);
  const std::uint64_t dead_before = est.stats().dead_on_arrival;
  est.add({{5, 5, 2.0}});
  EXPECT_EQ(est.stats().quarantined_stale, 1u);
  EXPECT_EQ(est.stats().dead_on_arrival, dead_before + 1);
  EXPECT_EQ(est.live_count(), 1u);  // the stale event never scattered

  const auto ring = est.quarantine();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0].reason, core::QuarantineReason::kNonFinite);
  EXPECT_EQ(ring[1].reason, core::QuarantineReason::kOutOfDomain);
  EXPECT_EQ(ring[2].reason, core::QuarantineReason::kStale);
  EXPECT_DOUBLE_EQ(ring[2].point.t, 2.0);

  const core::EngineHealth h = est.health();
  EXPECT_EQ(h.quarantined_total(), 3u);
  EXPECT_EQ(h.quarantine_dropped, 0u);
  EXPECT_FALSE(h.poisoned);
}

TEST(Quarantine, RingIsBoundedAndCountsEvictions) {
  const auto tiny = stkde::testing::make_tiny(8, 3, 2);
  core::StreamConfig cfg;
  cfg.quarantine_capacity = 4;
  core::IncrementalEstimator est(tiny.domain, tiny.params, cfg);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  PointSet bad;
  for (int i = 0; i < 7; ++i)
    bad.push_back({nan, static_cast<double>(i), 1.0});
  est.add(bad);
  EXPECT_EQ(est.live_count(), 0u);
  const auto ring = est.quarantine();
  ASSERT_EQ(ring.size(), 4u);  // oldest three evicted, newest four kept
  EXPECT_DOUBLE_EQ(ring.front().point.y, 3.0);
  EXPECT_DOUBLE_EQ(ring.back().point.y, 6.0);
  EXPECT_EQ(est.stats().quarantine_dropped, 3u);
  EXPECT_EQ(est.health().quarantine_dropped, 3u);
}

// ---------------------------------------------------------------------------
// Serve-side graceful degradation

serve::Session make_session(const serve::SnapshotRegistry& reg,
                            serve::SessionConfig cfg = {}) {
  return serve::Session(reg, cfg);
}

wire::Frame ask(const serve::Session& session, const wire::QueryMessage& q) {
  const wire::Frame f = wire::encode(q);
  return serve::serve_frame(session, f.data(), f.size());
}

TEST(DegradedServe, EmptyRegistryAnswersTypedErrorsNotThrows) {
  const auto tiny = stkde::testing::make_tiny(8, 3, 2);
  serve::SnapshotRegistry reg(tiny.domain);
  serve::Session session = make_session(reg);

  const serve::BeginResult begin = session.begin_request();
  EXPECT_FALSE(begin.ok());
  EXPECT_EQ(begin.state, serve::SessionState::kNoData);
  EXPECT_EQ(begin.version, 0u);

  const std::vector<wire::QueryMessage> queries = {
      wire::DensityAtQuery{{5, 5, 5}},
      wire::RegionQuery{Extent3{0, 4, 0, 4, 0, 4}, wire::RegionOp::kSum},
      wire::SliceQuery{0},
      wire::HotspotsQuery{4, 0.9},
      wire::RegionGridQuery{Extent3{0, 4, 0, 4, 0, 4}},
  };
  for (const auto& q : queries) {
    const wire::Frame resp = ask(session, q);
    const auto decoded = wire::decode_response(resp.data(), resp.size());
    ASSERT_TRUE(decoded.has_value());
    const auto* err = std::get_if<wire::ErrorResponse>(&*decoded);
    ASSERT_NE(err, nullptr) << "data query before first publish";
    EXPECT_EQ(err->code, wire::ErrorCode::kUnavailable);
    EXPECT_FALSE(err->message.empty());
  }
}

TEST(DegradedServe, HealthEndpointAnswersBeforeFirstPublish) {
  const auto tiny = stkde::testing::make_tiny(8, 3, 2);
  serve::SnapshotRegistry reg(tiny.domain);
  serve::Session session = make_session(reg);
  const wire::Frame resp = ask(session, wire::HealthQuery{});
  const auto decoded = wire::decode_response(resp.data(), resp.size());
  ASSERT_TRUE(decoded.has_value());
  const auto* hr = std::get_if<wire::HealthResponse>(&*decoded);
  ASSERT_NE(hr, nullptr);
  EXPECT_EQ(hr->state, serve::SessionState::kNoData);
  EXPECT_EQ(hr->version, 0u);
  EXPECT_EQ(hr->head_version, 0u);
  EXPECT_EQ(hr->staleness_ms, std::numeric_limits<std::uint64_t>::max());
}

TEST(DegradedServe, WriterStallDegradesButKeepsServing) {
  const auto tiny = stkde::testing::make_tiny(600, 3, 2);
  core::StreamConfig cfg;
  core::IncrementalEstimator eng(tiny.domain, tiny.params, cfg);
  serve::SnapshotRegistry reg(eng);
  eng.add(tiny.points);

  serve::SessionConfig scfg;
  scfg.stall_after = std::chrono::milliseconds{40};
  serve::Session session = make_session(reg, scfg);

  const serve::BeginResult fresh = session.begin_request();
  ASSERT_EQ(fresh.state, serve::SessionState::kFresh);
  ASSERT_GT(fresh.version, 0u);

  // The writer goes quiet past the stall threshold: requests degrade but
  // keep answering from the last-good pin.
  std::this_thread::sleep_for(std::chrono::milliseconds{120});
  const serve::BeginResult stalled = session.begin_request();
  EXPECT_EQ(stalled.state, serve::SessionState::kDegraded);
  EXPECT_EQ(stalled.version, fresh.version);

  const wire::Frame resp =
      ask(session, wire::DensityAtQuery{{12, 10, 8}});
  const auto decoded = wire::decode_response(resp.data(), resp.size());
  ASSERT_TRUE(decoded.has_value());
  const auto* da = std::get_if<wire::DensityAtResponse>(&*decoded);
  ASSERT_NE(da, nullptr) << "degraded sessions still answer data queries";
  EXPECT_EQ(da->version, stalled.version);

  const wire::Frame hresp = ask(session, wire::HealthQuery{});
  const auto hdec = wire::decode_response(hresp.data(), hresp.size());
  ASSERT_TRUE(hdec.has_value());
  const auto* hr = std::get_if<wire::HealthResponse>(&*hdec);
  ASSERT_NE(hr, nullptr);
  EXPECT_EQ(hr->state, serve::SessionState::kDegraded);
  EXPECT_GE(hr->staleness_ms, 40u);

  // The writer resumes: the next request is fresh again.
  eng.add(PointSet{tiny.points[0]});
  const serve::BeginResult resumed = session.begin_request();
  EXPECT_EQ(resumed.state, serve::SessionState::kFresh);
  EXPECT_GT(resumed.version, stalled.version);
}

TEST(DegradedServe, AwaitVersionTimeoutKeepsLastGoodPin) {
  const auto tiny = stkde::testing::make_tiny(200, 3, 2);
  core::StreamConfig cfg;
  core::IncrementalEstimator eng(tiny.domain, tiny.params, cfg);
  serve::SnapshotRegistry reg(eng);
  eng.add(tiny.points);

  serve::SessionConfig scfg;
  scfg.request_deadline = std::chrono::milliseconds{60};
  serve::Session session = make_session(reg, scfg);

  const std::uint64_t head = reg.head_version();
  const auto t0 = std::chrono::steady_clock::now();
  const serve::BeginResult late = session.await_version(head + 3);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(late.state, serve::SessionState::kDegraded);
  EXPECT_EQ(late.version, head);  // last-good pin, not an error
  EXPECT_GE(waited, std::chrono::milliseconds{50});

  // An already-satisfied target returns fresh without blocking.
  const serve::BeginResult now = session.await_version(head);
  EXPECT_EQ(now.state, serve::SessionState::kFresh);
  EXPECT_EQ(now.version, head);
}

TEST(DegradedServe, AwaitVersionWakesOnConcurrentPublish) {
  const auto tiny = stkde::testing::make_tiny(8, 3, 2);
  serve::SnapshotRegistry reg(tiny.domain);
  auto grid = std::make_shared<DensityGrid>(tiny.domain.dims());
  grid->fill(1.0f);
  reg.publish(serve::Snapshot{grid, 10, 1});

  serve::SessionConfig scfg;
  scfg.request_deadline = std::chrono::milliseconds{2000};
  serve::Session session = make_session(reg, scfg);

  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
    reg.publish(serve::Snapshot{grid, 10, 2});
  });
  const auto t0 = std::chrono::steady_clock::now();
  const serve::BeginResult r = session.await_version(2);
  const auto waited = std::chrono::steady_clock::now() - t0;
  publisher.join();
  EXPECT_EQ(r.state, serve::SessionState::kFresh);
  EXPECT_EQ(r.version, 2u);
  // Backoff slices cap at 64 ms: the wake is prompt, not deadline-bound.
  EXPECT_LT(waited, std::chrono::milliseconds{1500});
}

// ---------------------------------------------------------------------------
// Chaos: fault injection against the full stack (failpoint builds only)

class Chaos : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fp::enabled()) GTEST_SKIP() << "requires -DSTKDE_FAILPOINTS=ON";
    fp::disarm_all();
  }
  void TearDown() override { fp::disarm_all(); }
};

TEST_F(Chaos, InjectedErrorRollsBackAndTheStreamContinues) {
  const auto tiny = stkde::testing::make_tiny(2000, 3, 2);
  const auto half = tiny.points.begin() +
                    static_cast<std::ptrdiff_t>(tiny.points.size() / 2);
  const PointSet first(tiny.points.begin(), half);
  const PointSet second(half, tiny.points.end());

  core::IncrementalEstimator est(tiny.domain, tiny.params);
  est.add(first);

  fp::Spec spec;
  spec.action = fp::Action::kError;
  spec.after_hits = 1;
  fp::arm("stream.ingest", spec);
  EXPECT_THROW(est.add(second), util::InjectedFault);
  // Error-class faults follow the failure contract: rollback, not poison.
  EXPECT_FALSE(est.poisoned());
  EXPECT_GE(est.stats().recoveries, 1u);
  EXPECT_EQ(est.live_count(), first.size());

  // The at-least-once feeder retries the same batch; the stream converges
  // to exactly the uninterrupted result.
  fp::disarm_all();
  est.add(second);
  core::IncrementalEstimator clean(tiny.domain, tiny.params);
  clean.add(first);
  clean.add(second);
  EXPECT_EQ(est.live_count(), clean.live_count());
  const DensityGrid want = clean.snapshot();
  const double tol = 1e-5 * static_cast<double>(want.max_value());
  EXPECT_LE(est.snapshot().max_abs_diff(want), tol);
}

TEST_F(Chaos, ServeFrameFaultBecomesAnInternalErrorFrame) {
  const auto tiny = stkde::testing::make_tiny(400, 3, 2);
  core::IncrementalEstimator eng(tiny.domain, tiny.params);
  serve::SnapshotRegistry reg(eng);
  eng.add(tiny.points);
  serve::Session session = make_session(reg);
  (void)session.begin_request();

  for (const fp::Action action : {fp::Action::kError, fp::Action::kCrash}) {
    fp::Spec spec;
    spec.action = action;
    spec.after_hits = 1;
    fp::arm("serve.frame", spec);
    wire::Frame resp;
    // The transport contract survives injected faults of either class:
    // serve_frame never throws, it answers a kInternal error frame.
    EXPECT_NO_THROW(resp = ask(session, wire::DensityAtQuery{{5, 5, 5}}));
    const auto decoded = wire::decode_response(resp.data(), resp.size());
    ASSERT_TRUE(decoded.has_value());
    const auto* err = std::get_if<wire::ErrorResponse>(&*decoded);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, wire::ErrorCode::kInternal);
    EXPECT_NE(err->message.find("serve.frame"), std::string::npos);
  }

  fp::disarm_all();
  const wire::Frame ok = ask(session, wire::DensityAtQuery{{5, 5, 5}});
  const auto decoded = wire::decode_response(ok.data(), ok.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NE(std::get_if<wire::DensityAtResponse>(&*decoded), nullptr);
}

/// The crash matrix: for every failpoint site traversed by a durable
/// sliding-window feed, (1) probe the site's traversal count, (2) re-run
/// with a crash planted at the midpoint, (3) confirm the estimator
/// poisons, (4) recover into a fresh estimator, resume the feed at
/// last_batch_seq + 1, and (5) match the uninterrupted reference within
/// 1e-5 of its peak density.
void run_crash_matrix(int threads, std::size_t n_events, std::size_t batch,
                      const std::vector<std::string>& sites,
                      const std::string& tag) {
  const auto tiny = stkde::testing::make_tiny(n_events, 3, 2);
  const auto ops = make_ops(tiny.points, batch, /*window=*/4.0);

  core::StreamConfig base;
  base.threads = threads;
  // Several drift rebuilds over the run, so stream.rebuild is traversed.
  base.checkpoint_retires = std::max<std::uint64_t>(1000, n_events / 3);

  core::IncrementalEstimator ref(tiny.domain, tiny.params, base);
  feed(ref, ops, 0);
  ref.checkpoint();
  const DensityGrid ref_grid = ref.snapshot();
  const std::size_t ref_live = ref.live_count();
  const double tol = 1e-5 * static_cast<double>(ref_grid.max_value());
  ASSERT_GT(tol, 0.0);

  const std::string dir = fresh_dir("chaos_" + tag);
  core::StreamConfig dcfg = base;
  dcfg.durability.dir = dir;
  dcfg.durability.sync = io::WalSync::kBatch;  // traverses wal.sync
  dcfg.durability.checkpoint_events =
      std::max<std::uint64_t>(1000, n_events / 3);

  // One probe run counts every site's traversals under this configuration
  // (sites armed with the default kOff spec count hits but never fire).
  for (const auto& s : sites) fp::arm(s, fp::Spec{});
  core::DurableLog::reset_dir(dir);
  {
    core::IncrementalEstimator probe(tiny.domain, tiny.params, dcfg);
    feed(probe, ops, 0);
  }
  std::map<std::string, std::uint64_t> traversals;
  for (const auto& s : sites) traversals[s] = fp::hits(s);
  fp::disarm_all();

  for (const auto& site : sites) {
    SCOPED_TRACE(site);
    const std::uint64_t h = traversals[site];
    ASSERT_GT(h, 0u) << "site never traversed in this configuration";

    fp::Spec crash;
    crash.action = fp::Action::kCrash;
    crash.after_hits = std::max<std::uint64_t>(1, h / 2);
    fp::arm(site, crash);
    core::DurableLog::reset_dir(dir);
    bool crashed = false;
    {
      core::IncrementalEstimator victim(tiny.domain, tiny.params, dcfg);
      try {
        feed(victim, ops, 0);
      } catch (const util::InjectedCrash&) {
        crashed = true;
        EXPECT_TRUE(victim.poisoned());
        // Poison is sticky: every later writer-side op refuses.
        EXPECT_THROW(victim.add(ops.front().pts), std::logic_error);
      }
    }
    fp::disarm_all();
    ASSERT_TRUE(crashed) << "armed crash never fired (hits=" << h << ")";

    core::IncrementalEstimator rec(tiny.domain, tiny.params, dcfg);
    const core::RecoverReport rep = rec.recover();
    EXPECT_EQ(rec.batch_seq(), rep.last_batch_seq);
    ASSERT_LE(rep.last_batch_seq, ops.size());
    feed(rec, ops, rep.last_batch_seq);
    rec.checkpoint();
    EXPECT_EQ(rec.live_count(), ref_live);
    EXPECT_LE(rec.snapshot().max_abs_diff(ref_grid), tol);
  }
}

TEST_F(Chaos, CrashAtEverySiteRecoversSerial) {
  run_crash_matrix(
      /*threads=*/1, kMatrixEventsSerial, /*batch=*/500,
      {
          "stream.add",
          "stream.advance",
          "stream.ingest",
          "stream.publish",
          "stream.rebuild",
          "wal.append",
          "wal.append.torn",
          "wal.sync",
          "durable.checkpoint",
          "durable.checkpoint.commit",
      },
      "serial");
}

TEST_F(Chaos, CrashDuringRecoveryLeavesASecondRecoveryIntact) {
  // Crashing *inside* recovery itself must not damage the durable state a
  // later recovery reads: DurableLog::recover only repairs (torn-tail
  // truncation, itself idempotent) and WAL replay mutates nothing but the
  // in-memory estimator being built. Plant crashes at both recovery-path
  // sites and prove a second, undisturbed recovery still reconstructs the
  // reference exactly.
  const auto tiny = stkde::testing::make_tiny(2000, 3, 2);
  const auto ops = make_ops(tiny.points, 250, /*window=*/4.0);
  const std::string dir = fresh_dir("chaos_rec_crash");
  core::StreamConfig cfg;
  cfg.durability.dir = dir;
  cfg.durability.checkpoint_events = 1000;  // checkpoint mid-run: a real
                                            // WAL tail remains to replay
  {
    core::IncrementalEstimator a(tiny.domain, tiny.params, cfg);
    feed(a, ops, 0);
    ASSERT_GT(a.stats().durable_checkpoints, 0u);
  }

  // The undisturbed reference recovery.
  DensityGrid want(tiny.domain.dims());
  std::size_t want_live = 0;
  std::uint64_t want_seq = 0;
  {
    core::IncrementalEstimator ref(tiny.domain, tiny.params, cfg);
    const core::RecoverReport rep = ref.recover();
    ASSERT_TRUE(rep.checkpoint_loaded);
    ASSERT_GT(rep.batches_replayed, 0u)
        << "no WAL tail: stream.recover.replay would go untested";
    want = ref.snapshot();
    want_live = ref.live_count();
    want_seq = rep.last_batch_seq;
  }
  const double tol = 1e-5 * static_cast<double>(want.max_value());
  ASSERT_GT(tol, 0.0);

  for (const std::string site : {"durable.recover", "stream.recover.replay"}) {
    SCOPED_TRACE(site);
    // Probe how often one recovery traverses this site.
    fp::arm(site, fp::Spec{});
    {
      core::IncrementalEstimator probe(tiny.domain, tiny.params, cfg);
      (void)probe.recover();
    }
    const std::uint64_t h = fp::hits(site);
    fp::disarm_all();
    ASSERT_GT(h, 0u) << "site never traversed during recovery";

    // Crash at the midpoint of the recovery replay...
    fp::Spec crash;
    crash.action = fp::Action::kCrash;
    crash.after_hits = std::max<std::uint64_t>(1, h / 2);
    fp::arm(site, crash);
    {
      core::IncrementalEstimator victim(tiny.domain, tiny.params, cfg);
      EXPECT_THROW((void)victim.recover(), util::InjectedCrash);
    }
    fp::disarm_all();

    // ...and the second recovery sees durable state untouched by the first
    // attempt's death: same sequence, same live set, same grid. No writes
    // here — both sites must recover against the same durable state.
    core::IncrementalEstimator again(tiny.domain, tiny.params, cfg);
    const core::RecoverReport rep = again.recover();
    EXPECT_EQ(rep.last_batch_seq, want_seq);
    EXPECT_EQ(again.live_count(), want_live);
    EXPECT_LE(again.snapshot().max_abs_diff(want), tol);
  }

  // The twice-recovered estimator is live, not a museum piece. Once, after
  // the site loop: this add appends to the WAL, so doing it between sites
  // would shift the durable state the next site recovers against.
  core::IncrementalEstimator live(tiny.domain, tiny.params, cfg);
  (void)live.recover();
  live.add(PointSet{ops.back().pts.begin(), ops.back().pts.begin() + 3});
  EXPECT_EQ(live.batch_seq(), want_seq + 1);
}

TEST_F(Chaos, CrashAtEverySiteRecoversSharded) {
  run_crash_matrix(
      /*threads=*/2, kMatrixEventsSharded, /*batch=*/400,
      {
          "pool.submit",
          "stamp.task",
          "stream.ingest",
          "stream.publish",
          "wal.append",
          "durable.checkpoint.commit",
      },
      "sharded");
}

}  // namespace
}  // namespace stkde
