#include "core/durability.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "io/bytes.hpp"
#include "io/checked_io.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"

namespace stkde::core {

namespace fs = std::filesystem;

namespace {

constexpr char kCkptMagic[8] = {'S', 'T', 'K', 'D', 'E', 'C', 'P', '1'};

/// Write + flush + fsync + close \p bytes at \p path; throws on failure
/// (io/checked_io.hpp, so short writes carry errno's text).
void write_file_durably(const std::string& path, const io::Bytes& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) io::throw_io_error("durability", "open for write", path);
  try {
    io::checked_write(f, bytes.data(), bytes.size(), "durability", path);
    io::checked_flush(f, "durability", path);
    io::checked_fsync(f, "durability", path);
  } catch (...) {
    std::fclose(f);
    throw;
  }
  std::fclose(f);
}

}  // namespace

DurableLog::DurableLog(std::string dir, io::WalSync sync)
    : dir_(std::move(dir)), sync_(sync) {
  if (dir_.empty())
    throw std::invalid_argument("DurableLog: empty directory");
  fs::create_directories(dir_);
  // Prior state = a committed checkpoint, or any WAL holding more than its
  // magic. Either means this directory belongs to an earlier incarnation;
  // appending before recover() would interleave two histories.
  if (fs::exists(ckpt_path())) has_prior_state_ = true;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal.", 0) == 0 && entry.is_regular_file() &&
        entry.file_size() > 8)
      has_prior_state_ = true;
  }
}

DurableLog::~DurableLog() = default;

std::string DurableLog::wal_path(std::uint64_t gen) const {
  return dir_ + "/wal." + std::to_string(gen) + ".log";
}

std::string DurableLog::ckpt_path() const { return dir_ + "/checkpoint.ck"; }

std::string DurableLog::tmp_path() const { return dir_ + "/checkpoint.tmp"; }

void DurableLog::ensure_appender() {
  if (has_prior_state_)
    throw std::logic_error(
        "DurableLog: directory has prior state; call recover() or "
        "reset_dir() first");
  if (!wal_)
    wal_ = std::make_unique<io::WalWriter>(wal_path(gen_), sync_);
}

void DurableLog::append(const io::WalRecord& rec) {
  ensure_appender();
  wal_->append(rec);
}

void DurableLog::checkpoint(std::uint64_t last_seq, double last_cutoff,
                            const PointSet& live, const DensityGrid& grid) {
  STKDE_FAILPOINT("durable.checkpoint");
  ensure_appender();  // asserts the no-prior-state invariant
  const std::uint64_t next_gen = gen_ + 1;

  // Assemble the full file (checkpoints are grid-sized; the copy is the
  // price of a single-pass CRC and a single durable write).
  io::Bytes bytes;
  bytes.reserve(sizeof(kCkptMagic) + 4 * 8 + live.size() * io::kPointBytes +
                io::grid_payload_bytes(grid) + 4);
  bytes.insert(bytes.end(), kCkptMagic, kCkptMagic + sizeof(kCkptMagic));
  io::put_u64(bytes, next_gen);
  io::put_u64(bytes, last_seq);
  io::put_f64(bytes, last_cutoff);
  io::put_u64(bytes, live.size());
  for (const Point& p : live) io::put_point(bytes, p);
  io::put_grid(bytes, grid);
  io::put_u32(bytes, util::crc32(bytes.data() + sizeof(kCkptMagic),
                                 bytes.size() - sizeof(kCkptMagic)));

  write_file_durably(tmp_path(), bytes);
  // The next generation's log must exist before the commit: after the
  // rename, recovery looks for wal.<next_gen> and must find a valid
  // (possibly empty) file, not ENOENT.
  { io::WalWriter fresh(wal_path(next_gen), sync_, /*truncate=*/true); }

  STKDE_FAILPOINT("durable.checkpoint.commit");
  fs::rename(tmp_path(), ckpt_path());  // the atomic commit point

  // Post-commit bookkeeping: swap the appender, drop the superseded log.
  wal_ = std::make_unique<io::WalWriter>(wal_path(next_gen), sync_);
  std::error_code ec;
  fs::remove(wal_path(gen_), ec);
  gen_ = next_gen;
}

DurableLog::Recovered DurableLog::recover() {
  // Chaos site: a crash while reading durable state back (checkpoint
  // parse / WAL scan). Fires before anything on disk or in memory is
  // touched, so recovery can simply be attempted again.
  STKDE_FAILPOINT("durable.recover");
  Recovered r;
  if (fs::exists(ckpt_path())) {
    const io::Bytes bytes = io::read_file(ckpt_path(), "durability");
    constexpr std::size_t kFixed = sizeof(kCkptMagic) + 8 + 8 + 8 + 8;
    if (bytes.size() < kFixed + 4 ||
        std::memcmp(bytes.data(), kCkptMagic, sizeof(kCkptMagic)) != 0)
      throw std::runtime_error("durability: corrupt checkpoint (header) in " +
                               dir_);
    // Everything between the magic and the trailing CRC.
    io::Reader in{bytes.data() + sizeof(kCkptMagic),
                  bytes.size() - sizeof(kCkptMagic) - 4};
    io::Reader crc{in.p + in.n, 4};
    if (crc.u32() != util::crc32(in.p, in.n))
      throw std::runtime_error("durability: corrupt checkpoint (CRC) in " +
                               dir_);
    r.gen = in.u64();
    r.last_seq = in.u64();
    r.last_cutoff = in.f64();
    const std::uint64_t n = in.u64();
    if (n > in.remaining() / io::kPointBytes)
      throw std::runtime_error("durability: corrupt checkpoint (points) in " +
                               dir_);
    r.live.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) r.live.push_back(in.point());
    r.grid = io::read_grid(in, ckpt_path());  // throws on a bad grid payload
    r.have_checkpoint = true;
    gen_ = r.gen;
  } else {
    gen_ = 0;
  }

  const std::string wpath = wal_path(gen_);
  io::WalReplay rep = io::read_wal(wpath);
  if (rep.torn) {
    r.torn = true;
    r.truncated_bytes = rep.file_bytes - rep.valid_bytes;
    io::truncate_wal(wpath, rep.valid_bytes);
  }
  r.tail = std::move(rep.records);

  has_prior_state_ = false;
  wal_.reset();
  ensure_appender();
  return r;
}

void DurableLog::reset_dir(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal.", 0) == 0 || name.rfind("checkpoint.", 0) == 0)
      fs::remove(entry.path(), ec);
  }
}

std::uint64_t DurableLog::wal_records() const {
  return wal_ ? wal_->records() : 0;
}

std::uint64_t DurableLog::wal_synced() const {
  return wal_ ? wal_->synced_records() : 0;
}

std::uint64_t DurableLog::wal_bytes() const {
  return wal_ ? wal_->bytes() : 0;
}

}  // namespace stkde::core
