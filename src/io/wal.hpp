#pragma once
/// \file wal.hpp
/// Append-only binary write-ahead log of streaming events — the durability
/// substrate behind IncrementalEstimator::recover() (core/durability.hpp).
///
/// File layout (little-endian, encoded and decoded through io/bytes.hpp):
///
///   [0, 8)  magic "STKDEWL1"
///   then records, each:
///     u32  crc32 over the rest of the record (type .. points)
///     u16  type       (1 = add, 2 = advance, 3 = remove)
///     u16  reserved, 0
///     u64  seq        (monotone batch sequence number)
///     u32  count      (number of points)
///     f64  cutoff     (advance records only)
///     count x { f64 x, f64 y, f64 t }
///
/// Torn-tail contract: a crash mid-append leaves a prefix of a record at
/// the end of the file. read_wal() stops at the first record whose header
/// is short, whose fields are insane, or whose CRC mismatches, and reports
/// the byte offset of the valid prefix; recovery truncates the file there
/// and re-opens the appender. Everything before the torn record is intact
/// by construction (records are flushed in order).
///
/// Sync policy: appends always fflush (so a simulated in-process crash —
/// the chaos suite abandoning a writer object — leaves the bytes visible
/// to a fresh reader). WalSync::kBatch additionally fsyncs per append,
/// the real-crash durability mode; kNone trusts the OS page cache.
///
/// Threading: WalWriter is deliberately unsynchronized — it has exactly one
/// owner, the streaming engine's ingest thread (the single-writer contract
/// core/durability.hpp inherits). There is no mutex to annotate; do not
/// share a writer across threads. read_wal() operates on a closed file and
/// is safe from any thread.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "geom/point.hpp"

namespace stkde::io {

enum class WalRecordType : std::uint16_t {
  kAdd = 1,
  kAdvance = 2,
  kRemove = 3,
};

enum class WalSync : std::uint8_t {
  kNone = 0,   ///< fflush only (page cache); survives process death
  kBatch = 1,  ///< fsync every append; survives power loss
};

struct WalRecord {
  WalRecordType type = WalRecordType::kAdd;
  std::uint64_t seq = 0;
  double cutoff = 0.0;  ///< meaningful for kAdvance only
  PointSet points;
};

/// Result of scanning a WAL file.
struct WalReplay {
  std::vector<WalRecord> records;  ///< every intact record, in order
  std::uint64_t valid_bytes = 0;   ///< prefix length holding intact records
  std::uint64_t file_bytes = 0;    ///< actual file size
  bool torn = false;               ///< a torn/corrupt tail was detected
};

/// Scan \p path. A missing file is an empty replay (not an error); a file
/// whose 8-byte magic is wrong throws std::runtime_error (that is not a
/// WAL, truncating it would destroy data). Torn tails are reported, not
/// thrown.
[[nodiscard]] WalReplay read_wal(const std::string& path);

/// Physically truncate \p path to \p valid_bytes (the torn-tail repair).
void truncate_wal(const std::string& path, std::uint64_t valid_bytes);

/// Appender. Not thread-safe: the streaming engine's single writer thread
/// owns it.
class WalWriter {
 public:
  /// Open for append, writing the magic if the file is new/empty; \p
  /// truncate starts a fresh log regardless of prior content.
  WalWriter(std::string path, WalSync sync, bool truncate = false);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Append one record (flush per the sync policy). Throws
  /// std::runtime_error on I/O failure.
  void append(const WalRecord& rec);

  /// Force an fsync now (used by durable checkpoints regardless of policy).
  void sync();

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] std::uint64_t synced_records() const { return synced_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

  /// Test-only: the underlying stream, so fault tests can sabotage it
  /// (freopen read-only) and exercise the checked-write error path
  /// (io/checked_io.hpp) without a real full disk.
  [[nodiscard]] std::FILE* file_for_test() { return f_; }

 private:
  std::string path_;
  WalSync sync_;
  std::FILE* f_ = nullptr;
  std::uint64_t records_ = 0;
  std::uint64_t synced_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace stkde::io
