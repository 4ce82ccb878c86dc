#include "util/args.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace stkde::util {

namespace {

/// The whole of \p text as a T; throws std::invalid_argument naming the
/// flag and the value when text has trailing characters, is not a number,
/// or does not fit in T.
template <class T>
T parse_whole(const std::string& name, const std::string& text,
              const char* type) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end)
    throw std::invalid_argument("--" + name + ": '" + text + "' is not " +
                                type);
  return value;
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      std::string name = a.substr(2);
      const auto eq = name.find('=');
      if (eq != std::string::npos) {
        named_[name.substr(0, eq)] = name.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        named_[name] = argv[++i];
      } else {
        named_[name] = "";  // boolean flag
      }
    } else {
      positional_.push_back(a);
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return named_.count(name) > 0;
}

std::optional<std::string> ArgParser::raw(const std::string& name) const {
  auto it = named_.find(name);
  if (it == named_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  auto v = raw(name);
  return v ? *v : fallback;
}

double ArgParser::get(const std::string& name, double fallback) const {
  auto v = raw(name);
  return v ? parse_whole<double>(name, *v, "a double") : fallback;
}

long ArgParser::get(const std::string& name, long fallback) const {
  auto v = raw(name);
  return v ? parse_whole<long>(name, *v, "a long integer") : fallback;
}

int ArgParser::get(const std::string& name, int fallback) const {
  auto v = raw(name);
  return v ? parse_whole<int>(name, *v, "an int") : fallback;
}

}  // namespace stkde::util
