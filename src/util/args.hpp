#pragma once
/// \file args.hpp
/// Minimal command-line parser for the examples.
/// Supports "--name value", "--name=value", and boolean "--flag".

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace stkde::util {

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

}  // namespace stkde::util
