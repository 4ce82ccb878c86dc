#pragma once
/// \file durability.hpp
/// Durable state for the streaming engine: periodic grid checkpoints plus
/// the event WAL (io/wal.hpp), organized as a generation-numbered pair so
/// recovery is a two-step replay with no offset bookkeeping:
///
///   <dir>/checkpoint.ck   full state at some generation g
///   <dir>/wal.<g>.log     every batch logged after that checkpoint
///
/// Checkpoint file layout (little-endian, through io/bytes.hpp):
///   [0, 8)  magic "STKDECP1"
///   u64 gen, u64 last_seq, f64 last_cutoff
///   u64 live_count, live_count x { f64 x, f64 y, f64 t }
///   io/grid_io dense grid payload (magic "STKDEG1\0", extent, floats)
///   u32 crc32 over everything after the magic
///
/// Commit protocol (crash-safe at every step):
///   1. write checkpoint.tmp carrying generation g+1, fsync it
///   2. create an empty wal.<g+1>.log
///   3. rename checkpoint.tmp -> checkpoint.ck   (the atomic commit point)
///   4. switch the appender to wal.<g+1>.log, delete wal.<g>.log
/// A crash before 3 leaves generation g fully intact (the tmp file and the
/// pre-created next log are ignored garbage); a crash after 3 recovers
/// from g+1 with an empty-or-partial tail log. recover() additionally
/// truncates a torn WAL tail (io/wal.hpp's contract) before reopening the
/// appender.
///
/// Safety: a DurableLog pointed at a directory with prior state refuses to
/// append until recover() has been called (or reset_dir() wiped it) — a
/// fresh estimator silently interleaving new records into an old log is
/// the one corruption this layer cannot detect after the fact.
///
/// Threading: DurableLog is single-writer by contract — it lives on the
/// ingest thread, next to the WalWriter it owns (io/wal.hpp), and is
/// deliberately unsynchronized. recover() runs before any concurrent
/// activity starts. There is no lock-protected state here to annotate.

#include <cstdint>
#include <memory>
#include <string>

#include "geom/point.hpp"
#include "grid/dense_grid.hpp"
#include "io/wal.hpp"

namespace stkde::core {

/// Durability knobs (a member of StreamConfig).
struct DurabilityConfig {
  /// State directory; empty disables durability entirely.
  std::string dir;
  /// WAL sync policy (io/wal.hpp).
  io::WalSync sync = io::WalSync::kNone;
  /// Write a durable checkpoint after this many logged events (adds,
  /// retires, and removes all count — each bounds WAL replay work).
  /// 0 = only explicit durable_checkpoint() calls.
  std::uint64_t checkpoint_events = std::uint64_t{1} << 16;
};

/// The checkpoint + WAL pair behind one estimator.
class DurableLog {
 public:
  DurableLog(std::string dir, io::WalSync sync);
  ~DurableLog();
  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// True when the directory held a checkpoint or a non-empty WAL at
  /// construction; appending then requires recover() first.
  [[nodiscard]] bool has_prior_state() const { return has_prior_state_; }

  /// Append one batch record to the current generation's WAL.
  void append(const io::WalRecord& rec);

  /// Write a durable checkpoint of the full state and rotate the WAL
  /// (commit protocol above).
  void checkpoint(std::uint64_t last_seq, double last_cutoff,
                  const PointSet& live, const DensityGrid& grid);

  struct Recovered {
    bool have_checkpoint = false;
    std::uint64_t gen = 0;
    std::uint64_t last_seq = 0;
    double last_cutoff = 0.0;
    PointSet live;      ///< live window at the checkpoint
    DensityGrid grid;   ///< staging grid at the checkpoint (unallocated
                        ///< when !have_checkpoint)
    std::vector<io::WalRecord> tail;  ///< intact WAL records after it
    bool torn = false;                ///< a torn WAL tail was truncated
    std::uint64_t truncated_bytes = 0;
  };

  /// Load the checkpoint (validating magic + CRC; corruption throws),
  /// scan + repair the WAL, and reopen the appender at the tail. Also the
  /// entry point for an empty directory (returns an all-default
  /// Recovered). Clears the prior-state latch.
  [[nodiscard]] Recovered recover();

  /// Delete every durability file under \p dir (test/tool helper).
  static void reset_dir(const std::string& dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::uint64_t generation() const { return gen_; }
  [[nodiscard]] std::uint64_t wal_records() const;
  [[nodiscard]] std::uint64_t wal_synced() const;
  [[nodiscard]] std::uint64_t wal_bytes() const;

 private:
  [[nodiscard]] std::string wal_path(std::uint64_t gen) const;
  [[nodiscard]] std::string ckpt_path() const;
  [[nodiscard]] std::string tmp_path() const;
  void ensure_appender();

  std::string dir_;
  io::WalSync sync_;
  std::uint64_t gen_ = 0;
  bool has_prior_state_ = false;
  std::unique_ptr<io::WalWriter> wal_;
};

}  // namespace stkde::core
