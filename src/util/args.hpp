#pragma once
/// \file args.hpp
/// Minimal command-line parser for the examples.
/// Supports "--name value", "--name=value", and boolean "--flag".

#include <charconv>
#include <iosfwd>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace stkde::util {

/// The whole of \p text as a T (double, long or int); nullopt when text is
/// empty, has trailing characters, is not a number, or does not fit in T.
/// ArgParser's numeric getters and env_double/env_long parse with it.
template <class T>
[[nodiscard]] std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True when --name was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// The numeric getters return \p fallback when --name is absent and
  /// throw std::invalid_argument, naming the flag and the value, unless the
  /// whole value parses as the requested type and fits in it.
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] long get(const std::string& name, long fallback) const;
  [[nodiscard]] int get(const std::string& name, int fallback) const;

  /// Positional (non --flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  [[nodiscard]] std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> named_;
  std::vector<std::string> positional_;
};

/// An example program's command line: an ArgParser that accepts only the
/// flags \p usage names (e.g. "[--n N] [--out DIR]"). --help prints
/// "usage: <program> <usage> [--help]" on stdout and exits 0; an
/// unnamed flag, a positional argument, or a value get() cannot parse
/// prints the reason and the usage on stderr and exits 2.
class CommandLine {
 public:
  CommandLine(int argc, const char* const* argv, std::string usage);

  /// ArgParser::get, exiting 2 on a malformed value.
  template <class T>
  [[nodiscard]] T get(const std::string& name, const T& fallback) const {
    try {
      return args_.get(name, fallback);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
  }

 private:
  void print_usage(std::ostream& os) const;
  [[noreturn]] void fail(const std::string& why) const;

  ArgParser args_;
  std::string usage_;
};

}  // namespace stkde::util
