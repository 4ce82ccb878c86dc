#pragma once
/// \file checked_io.hpp
/// The one checked stdio error path for the durability layer (io/wal.cpp,
/// core/durability.cpp) and the codec's whole-file reader (io/bytes.cpp).
///
/// Raw fopen/fwrite error handling was previously duplicated at every call
/// site, each with a slightly different (and errno-less) message; a short
/// write — disk full, quota hit, closed stream — surfaced as a bare
/// "append failed". These helpers centralize the checks and always attach
/// `errno`'s text, so an operator can tell ENOSPC from EBADF from the log
/// line alone. Every helper throws std::runtime_error on failure; none
/// close the stream (ownership stays with the caller, matching RAII
/// holders like WalWriter).
///
/// Threading: stateless free functions; as thread-safe as the FILE* the
/// caller hands in (the WAL/durability layer is single-writer by
/// contract, see io/wal.hpp).

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace stkde::io {

/// "<who>: <op> failed on <path>: <strerror>" — the uniform message shape.
[[noreturn]] inline void throw_io_error(const char* who, const char* op,
                                        const std::string& path) {
  const int err = errno;
  std::string msg = std::string(who) + ": " + op + " failed on " + path;
  if (err != 0) msg += std::string(": ") + std::strerror(err);
  throw std::runtime_error(msg);
}

/// fwrite all \p n bytes of \p data to \p f or throw. Detects short
/// writes: a partial fwrite (disk full mid-buffer) fails like a zero
/// write does.
inline void checked_write(std::FILE* f, const void* data, std::size_t n,
                          const char* who, const std::string& path) {
  if (n == 0) return;
  if (std::fwrite(data, 1, n, f) != n) throw_io_error(who, "write", path);
}

/// ostream twin of checked_write: write all \p n bytes to \p os or throw.
/// ostream::write already refuses to touch a failed stream, so checking
/// the state once afterwards catches both the prior-failure and the
/// short-write case; errno (when the streambuf set it) rides along in
/// the message just like the FILE* helpers.
inline void checked_stream_write(std::ostream& os, const void* data,
                                 std::size_t n, const char* who,
                                 const std::string& path) {
  if (n == 0) return;
  errno = 0;
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(n));
  if (!os) throw_io_error(who, "write", path);
}

/// fflush \p f or throw.
inline void checked_flush(std::FILE* f, const char* who,
                          const std::string& path) {
  if (std::fflush(f) != 0) throw_io_error(who, "flush", path);
}

/// fsync \p f's descriptor or throw (no-op on Windows, as before).
inline void checked_fsync(std::FILE* f, const char* who,
                          const std::string& path) {
#ifndef _WIN32
  if (::fsync(::fileno(f)) != 0) throw_io_error(who, "fsync", path);
#else
  (void)f;
  (void)who;
  (void)path;
#endif
}

}  // namespace stkde::io
