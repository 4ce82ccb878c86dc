#include "util/args.hpp"

#include <cstdlib>
#include <iostream>
#include <set>

namespace stkde::util {

namespace {

/// parse_whole, throwing std::invalid_argument naming the flag and the
/// value when it fails.
template <class T>
T parse_flag(const std::string& name, const std::string& text,
             const char* type) {
  if (const auto value = parse_whole<T>(text)) return *value;
  throw std::invalid_argument("--" + name + ": '" + text + "' is not " + type);
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
  return v ? parse_flag<double>(name, *v, "a double") : fallback;
}

long ArgParser::get(const std::string& name, long fallback) const {
  auto v = raw(name);
  return v ? parse_flag<long>(name, *v, "a long integer") : fallback;
}

int ArgParser::get(const std::string& name, int fallback) const {
  auto v = raw(name);
  return v ? parse_flag<int>(name, *v, "an int") : fallback;
}

CommandLine::CommandLine(int argc, const char* const* argv, std::string usage)
    : args_(argc, argv), usage_(std::move(usage)) {
  // The accepted flags are the "--name" words of the usage.
  std::set<std::string> accepted;
  for (auto at = usage_.find("--"); at != std::string::npos;
       at = usage_.find("--", at + 2)) {
    const auto end = usage_.find_first_of(" =]", at + 2);
    accepted.insert(usage_.substr(at + 2, end - (at + 2)));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    const std::string name = a.substr(2, a.find('=') - 2);
    if (name == "help") {
      print_usage(std::cout);
      std::exit(0);
    }
    if (accepted.count(name) == 0) fail("unknown flag '" + a + "'");
  }
  if (!args_.positional().empty())
    fail("unexpected argument '" + args_.positional().front() + "'");
}

void CommandLine::print_usage(std::ostream& os) const {
  os << "usage: " << args_.program() << " " << usage_
     << (usage_.empty() ? "" : " ") << "[--help]\n";
}

void CommandLine::fail(const std::string& why) const {
  std::cerr << args_.program() << ": " << why << "\n";
  print_usage(std::cerr);
  std::exit(2);
}

}  // namespace stkde::util
