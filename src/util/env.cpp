#include "util/env.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "util/args.hpp"

namespace stkde::util {

namespace {

/// \p name's value parsed by parse_whole, or \p fallback when it is unset;
/// throws std::invalid_argument naming the variable and the value when it
/// does not parse.
template <class T>
T env_number(const std::string& name, T fallback, const char* type) {
  const auto s = env_string(name);
  if (!s) return fallback;
  if (const auto value = parse_whole<T>(*s)) return *value;
  throw std::invalid_argument(name + "='" + *s + "' is not " + type);
}

}  // namespace

std::optional<std::string> env_string(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

double env_double(const std::string& name, double fallback) {
  return env_number(name, fallback, "a double");
}

long env_long(const std::string& name, long fallback) {
  return env_number(name, fallback, "a long integer");
}

bool env_flag(const std::string& name) {
  const auto s = env_string(name);
  if (!s) return false;
  std::string word = *s;
  for (char& c : word)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (word.empty() || word == "0" || word == "false") return false;
  if (word == "1" || word == "true") return true;
  throw std::invalid_argument(name + "='" + *s +
                              "' is not a flag (1, true, 0, false or empty)");
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace stkde::util
