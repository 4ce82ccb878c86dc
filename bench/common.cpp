#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "geom/voxel_mapper.hpp"
#include "partition/binning.hpp"
#include "util/memory.hpp"

namespace stkde::bench {

std::string BenchEnv::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "voxel_cap=%lld work_cap=%.2g real_threads=%d memcap=%.1f "
                "max_cell_work=%.2g",
                static_cast<long long>(budget.voxel_cap), budget.work_cap,
                real_threads, memory_parallel_cap, max_cell_work);
  return buf;
}

namespace {

BenchEnv make_env(bool smoke) {
  BenchEnv env;
  double scale = util::env_double("STKDE_BENCH_SCALE", 1.0);
  // --smoke and STKDE_BENCH_FAST=1 apply the same reduction. The variable
  // is read even under --smoke, so a malformed value is always reported.
  env.smoke = util::env_flag("STKDE_BENCH_FAST") || smoke;
  if (env.smoke) scale = std::min(scale, 0.05);
  scale = std::clamp(scale, 1e-3, 100.0);
  env.budget.voxel_cap =
      static_cast<std::int64_t>(12'000'000.0 * scale);
  env.budget.work_cap = 1.2e8 * scale;
  env.real_threads = static_cast<int>(util::env_long(
      "STKDE_BENCH_THREADS", util::hardware_threads()));
  env.memory_parallel_cap = util::env_double("STKDE_BENCH_MEMCAP", 3.0);
  env.max_cell_work = util::env_double("STKDE_BENCH_MAX_WORK", 2.5e9) * scale;
  return env;
}

void print_usage(std::ostream& os, const char* prog) {
  os << "usage: " << prog << " [--json <path>] [--smoke] [--help]\n"
     << "  --json <path>  write the run's tables as a JSON artifact to <path>\n"
     << "                 (nothing is written without it)\n"
     << "  --smoke        shrink the instances for a seconds-long run\n"
     << "                 (same as STKDE_BENCH_FAST=1)\n"
     << "  --help         print this usage and exit\n"
     << "environment: STKDE_BENCH_FAST, STKDE_BENCH_SCALE, "
        "STKDE_BENCH_THREADS,\n"
     << "  STKDE_BENCH_MEMCAP, STKDE_BENCH_MAX_WORK (docs/BENCHMARKS.md)\n";
}

[[noreturn]] void usage_error(const char* prog, std::string_view what,
                              std::string_view arg = {}) {
  std::cerr << prog << ": " << what;
  if (!arg.empty()) std::cerr << " '" << arg << "'";
  std::cerr << "\n";
  print_usage(std::cerr, prog);
  std::exit(2);
}

}  // namespace

CliOptions parse_cli(int argc, char** argv) {
  const char* const prog = argc > 0 ? argv[0] : "bench";
  CliOptions cli;
  cli.program = prog;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      print_usage(std::cout, prog);
      std::exit(0);
    }
    if (arg == "--smoke") {
      cli.smoke = true;
    } else if (arg == "--json") {
      // Refuse to swallow a following flag as the path.
      if (i + 1 >= argc || argv[i + 1][0] == '-' || argv[i + 1][0] == '\0')
        usage_error(prog, "--json requires a path");
      cli.json_path = argv[++i];
    } else {
      usage_error(prog, "unknown argument", arg);
    }
  }
  return cli;
}

BenchEnv bench_env(const CliOptions& cli) {
  try {
    return make_env(cli.smoke);
  } catch (const std::invalid_argument& e) {
    usage_error(cli.program.c_str(), e.what());
  }
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Cells that parse fully as a finite double are emitted as JSON numbers;
/// everything else (names, "-" skip markers, "OOM", "inf"/"nan" — JSON has
/// no non-finite number literals) stays a string.
std::string json_scalar(const std::string& cell) {
  if (!cell.empty()) {
    double value = 0.0;
    const char* const last = cell.data() + cell.size();
    const auto [ptr, ec] = std::from_chars(cell.data(), last, value);
    if (ec == std::errc() && ptr == last && std::isfinite(value)) {
      return cell;  // already a valid JSON number literal
    }
  }
  std::string quoted = "\"";
  quoted += json_escape(cell);
  quoted += '"';
  return quoted;
}

}  // namespace

JsonArtifact::JsonArtifact(std::string bench, const BenchEnv& env,
                           CliOptions cli)
    : bench_(std::move(bench)), env_describe_(env.describe()),
      cli_(std::move(cli)) {}

void JsonArtifact::add_table(const std::string& name, const util::Table& t) {
  std::ostringstream os;
  os << "[";
  const auto& headers = t.headers();
  bool first_row = true;
  for (const auto& row : t.cells()) {
    os << (first_row ? "" : ",") << "\n    {";
    for (std::size_t c = 0; c < row.size() && c < headers.size(); ++c)
      os << (c ? ", " : "") << "\"" << json_escape(headers[c])
         << "\": " << json_scalar(row[c]);
    os << "}";
    first_row = false;
  }
  os << (first_row ? "]" : "\n  ]");
  tables_.emplace_back(name, os.str());
}

void JsonArtifact::add_scalar(const std::string& key, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan literals
    scalars_.emplace_back(key, "null");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  scalars_.emplace_back(key, buf);
}

void JsonArtifact::add_scalar(const std::string& key, std::int64_t v) {
  scalars_.emplace_back(key, std::to_string(v));
}

void JsonArtifact::add_scalar(const std::string& key, const std::string& v) {
  std::string quoted = "\"";
  quoted += json_escape(v);
  quoted += '"';
  scalars_.emplace_back(key, std::move(quoted));
}

void JsonArtifact::add_scalar(const std::string& key, const char* v) {
  add_scalar(key, std::string(v));
}

void JsonArtifact::add_scalar(const std::string& key, bool v) {
  scalars_.emplace_back(key, v ? "true" : "false");
}

bool JsonArtifact::write() const {
  if (!cli_.json_path) return false;
  std::ofstream out(*cli_.json_path);
  if (!out) {
    std::cerr << "warning: cannot write JSON artifact to " << *cli_.json_path
              << "\n";
    return false;
  }
  out << "{\n  \"bench\": \"" << json_escape(bench_) << "\",\n"
      << "  \"host_threads\": " << util::hardware_threads() << ",\n"
      << "  \"env\": \"" << json_escape(env_describe_) << "\",\n"
      << "  \"smoke\": " << (cli_.smoke ? "true" : "false");
  for (const auto& [key, json] : scalars_)
    out << ",\n  \"" << json_escape(key) << "\": " << json;
  for (const auto& [name, json] : tables_)
    out << ",\n  \"" << json_escape(name) << "\": " << json;
  out << "\n}\n";
  std::cout << "[json artifact written to " << *cli_.json_path << "]\n";
  return true;
}

const std::vector<std::int32_t>& decomp_sweep() {
  static const std::vector<std::int32_t> sweep = {1, 2, 4, 8, 16, 32, 64};
  return sweep;
}

const data::Instance& load_instance(const data::InstanceSpec& spec) {
  static std::map<std::string, data::Instance> cache;
  const std::string key =
      spec.name + "/" + std::to_string(spec.dims.voxels()) + "/" +
      std::to_string(spec.n);
  auto it = cache.find(key);
  if (it == cache.end()) it = cache.emplace(key, data::materialize(spec)).first;
  return it->second;
}

Params instance_params(const data::Instance& inst, int threads) {
  Params p;
  p.hs = inst.hs;
  p.ht = inst.ht;
  p.threads = threads;
  return p;
}

void print_banner(const std::string& title, const BenchEnv& env) {
  std::cout << "==================================================================\n"
            << title << "\n"
            << "------------------------------------------------------------------\n"
            << "host: " << util::hardware_threads() << " hardware thread(s), "
            << util::format_bytes(util::MemoryBudget::instance().limit())
            << " memory budget\n"
            << "scaling: " << env.describe() << "\n"
            << "(see docs/BENCHMARKS.md for what each bench measures)\n"
            << "==================================================================\n";
}

double dd_work_estimate(const data::Instance& inst,
                        const data::InstanceSpec& spec, std::int32_t d) {
  const VoxelMapper map(inst.domain);
  const Decomposition dec =
      Decomposition::uniform(inst.domain.dims(), DecompRequest{d, d, d});
  const PointBins bins =
      bin_by_intersection(inst.points, map, dec, spec.Hs, spec.Ht);
  const double side = 2.0 * spec.Hs + 1.0, depth = 2.0 * spec.Ht + 1.0;
  const double tables = side * side + depth;
  return static_cast<double>(bins.total_entries) * tables +
         static_cast<double>(inst.points.size()) * side * side * depth;
}

double mem_phase(double seq_seconds, int P, double cap) {
  return seq_seconds / std::min<double>(P, cap);
}

bool paper_scale_oom(const data::InstanceSpec& laptop_spec,
                     std::uint64_t laptop_bytes_needed) {
  const data::InstanceSpec& paper = data::paper_instance(laptop_spec.name);
  const double ratio = static_cast<double>(paper.grid_bytes()) /
                       static_cast<double>(laptop_spec.grid_bytes());
  const double paper_bytes =
      static_cast<double>(laptop_bytes_needed) * ratio +
      static_cast<double>(paper.n) * 24.0;  // 3 doubles per event
  constexpr double kPaperMemory = 120.0 * (1ULL << 30);  // 128 GB - OS slack
  return paper_bytes > kPaperMemory;
}

double simulate_dr_seconds(const PhaseModel& m, int P) {
  // init: P replicas written by P threads, memory-bound.
  const double init = mem_phase(m.init_seq * P, P, m.mem_cap);
  // compute: pleasingly parallel over points.
  const double compute = m.compute_seq / P;
  // reduce: P replicas summed into the grid, memory-bound.
  const double reduce = mem_phase(m.init_seq * P, P, m.mem_cap);
  return init + compute + reduce + m.bin_seq;
}

}  // namespace stkde::bench
