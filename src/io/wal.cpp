#include "io/wal.hpp"

#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "io/bytes.hpp"
#include "io/checked_io.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"

namespace stkde::io {

namespace {

constexpr char kMagic[8] = {'S', 'T', 'K', 'D', 'E', 'W', 'L', '1'};
/// crc + type + reserved + seq + count.
constexpr std::size_t kRecordHeaderBytes = 4 + 2 + 2 + 8 + 4;
/// Allocation bound per record (a conforming batch never approaches it).
constexpr std::uint32_t kMaxRecordPoints = 1u << 24;

/// Serialize a record; bytes [4, end) are covered by the leading CRC.
Bytes encode_record(const WalRecord& rec) {
  Bytes b;
  const bool advance = rec.type == WalRecordType::kAdvance;
  b.reserve(kRecordHeaderBytes + (advance ? 8 : 0) +
            rec.points.size() * kPointBytes);
  put_u32(b, 0);  // CRC placeholder
  put_u16(b, static_cast<std::uint16_t>(rec.type));
  put_u16(b, 0);  // reserved
  put_u64(b, rec.seq);
  put_u32(b, static_cast<std::uint32_t>(rec.points.size()));
  if (advance) put_f64(b, rec.cutoff);
  for (const Point& p : rec.points) put_point(b, p);
  patch_u32(b, 0, util::crc32(b.data() + 4, b.size() - 4));
  return b;
}

}  // namespace

WalReplay read_wal(const std::string& path) {
  WalReplay out;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return out;

  const Bytes buf = read_file(path, "wal");
  out.file_bytes = buf.size();

  if (buf.size() < sizeof(kMagic)) {
    // A creation that died before the magic landed: nothing to replay, the
    // whole file is a torn tail.
    out.torn = !buf.empty();
    out.valid_bytes = 0;
    return out;
  }
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("wal: bad magic in " + path);

  std::size_t off = sizeof(kMagic);
  out.valid_bytes = off;
  while (off < buf.size()) {
    // One reader per record, over the rest of the file: a short header
    // latches r.fail, and a count the rest cannot hold fails the size check
    // before anything is allocated.
    Reader r{buf.data() + off, buf.size() - off};
    const std::uint32_t crc = r.u32();
    const std::uint16_t type = r.u16();
    const std::uint16_t reserved = r.u16();
    const std::uint64_t seq = r.u64();
    const std::uint32_t count = r.u32();
    if (r.fail || reserved != 0 || type < 1 || type > 3 ||
        count > kMaxRecordPoints) {
      out.torn = true;
      break;
    }
    const bool advance =
        type == static_cast<std::uint16_t>(WalRecordType::kAdvance);
    const std::size_t body = kRecordHeaderBytes + (advance ? 8 : 0) +
                             static_cast<std::size_t>(count) * kPointBytes;
    if (r.n < body || util::crc32(r.p + 4, body - 4) != crc) {
      out.torn = true;
      break;
    }
    WalRecord rec;
    rec.type = static_cast<WalRecordType>(type);
    rec.seq = seq;
    if (advance) rec.cutoff = r.f64();
    rec.points.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) rec.points.push_back(r.point());
    out.records.push_back(std::move(rec));
    off += body;
    out.valid_bytes = off;
  }
  return out;
}

void truncate_wal(const std::string& path, std::uint64_t valid_bytes) {
  std::filesystem::resize_file(path, valid_bytes);
}

WalWriter::WalWriter(std::string path, WalSync sync, bool truncate)
    : path_(std::move(path)), sync_(sync) {
  f_ = std::fopen(path_.c_str(), truncate ? "wb" : "ab");
  if (f_ == nullptr) throw_io_error("wal", "open for append", path_);
  std::fseek(f_, 0, SEEK_END);
  if (std::ftell(f_) == 0) {
    try {
      checked_write(f_, kMagic, sizeof(kMagic), "wal", path_);
      checked_flush(f_, "wal", path_);
    } catch (...) {
      std::fclose(f_);
      f_ = nullptr;
      throw;
    }
  }
}

WalWriter::~WalWriter() {
  if (f_ != nullptr) {
    // stkde-lint: allow(checked-io): destructor must not throw; best-effort flush before close, durability is sync()'s job
    std::fflush(f_);
    std::fclose(f_);
  }
}

void WalWriter::append(const WalRecord& rec) {
  STKDE_FAILPOINT("wal.append");
  const Bytes b = encode_record(rec);
#if defined(STKDE_FAILPOINTS) && STKDE_FAILPOINTS
  // Chaos hook for a *torn* append: land (and flush) a record prefix, then
  // give the failpoint its chance to kill the writer — recovery must
  // detect the short record and truncate it. Compiled out of normal
  // builds, which write each record with a single fwrite below.
  {
    const std::size_t half = b.size() / 2;
    checked_write(f_, b.data(), half, "wal", path_);
    checked_flush(f_, "wal", path_);
    STKDE_FAILPOINT("wal.append.torn");
    checked_write(f_, b.data() + half, b.size() - half, "wal", path_);
    checked_flush(f_, "wal", path_);
  }
#else
  checked_write(f_, b.data(), b.size(), "wal", path_);
  checked_flush(f_, "wal", path_);
#endif
  bytes_ += b.size();
  ++records_;
  if (sync_ == WalSync::kBatch) sync();
}

void WalWriter::sync() {
  STKDE_FAILPOINT("wal.sync");
  checked_flush(f_, "wal", path_);
  checked_fsync(f_, "wal", path_);
  synced_ = records_;
}

}  // namespace stkde::io
