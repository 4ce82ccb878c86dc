// perfbench_run: one phase of one workload. perfbench/run.py drives it —
// several fresh "probe" processes for set-up time and peak memory, then one
// "run" process for the timed loop — and prints the benchmark's result.
//
//   perfbench_run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//                 [--phase probe|run]
//
// Prints report lines, then as its last line one JSON object:
//   {"phase": ..., "correct": ..., "attempted": ..., "failed": ...,
//    "metrics": {"<name>": {"value": ..., "unit": ...}, ...}}

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

constexpr const char* kUsage =
    "usage: perfbench_run --workload batch-pollen|batch-flu|live-dengue --seed N\n"
    "                     [--seconds S] [--trace 0|1] [--phase probe|run]\n";

int usage_error(const std::string& msg) {
  std::cerr << "perfbench_run: " << msg << "\n" << kUsage;
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
  try {
    *out = std::stoull(s);
  } catch (...) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (i + 1 >= argc) return usage_error("missing value for " + a);
    const std::string v = argv[++i];
    std::uint64_t u = 0;
    if (a == "--workload") {
      if (v != "batch-pollen" && v != "batch-flu" && v != "live-dengue")
        return usage_error("unknown workload '" + v + "'");
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      if (!parse_u64(v, &u)) return usage_error("--seed takes a whole number");
      o.seed = u;
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, &u) || u == 0 || u > 600)
        return usage_error("--seconds takes a whole number from 1 to 600");
      o.seconds = static_cast<double>(u);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage_error("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--phase") {
      if (v != "probe" && v != "run") return usage_error("--phase takes probe or run");
      o.phase = v;
    } else {
      return usage_error("unknown flag '" + a + "'");
    }
  }
  if (!have_workload || !have_seed)
    return usage_error("--workload and --seed are required");
  if (o.phase == "run" && o.seconds <= 0.0)
    return usage_error("--seconds is required for the run phase");

  const ThreadPlan plan = thread_plan(o.workload);
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  std::cout << "threads: " << o.workload << " runs parallel sections on "
            << plan.parallel << " threads, at most " << plan.busy
            << " busy at once (" << plan.detail << "); host has " << cores
            << " cores\n";
  if (plan.busy > cores) {
    std::cerr << "perfbench_run: refusing " << o.workload << ": " << plan.busy
              << " busy threads exceed the " << cores << " cores\n";
    return 3;
  }

  PhaseResult r;
  try {
    r = o.workload == "live-dengue" ? run_live(o) : run_batch(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_run: " << o.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  for (const auto& line : r.report) std::cout << line << "\n";
  std::cout << "fail_ratio of this process " << num(r.outcomes.fail_ratio()) << " ("
            << r.outcomes.failed << " of " << r.outcomes.attempted << " attempted)\n";

  std::cout << "{\"phase\": \"" << o.phase << "\", \"correct\": "
            << (r.outcomes.failed == 0 && r.outcomes.attempted > 0 ? "true" : "false")
            << ", \"attempted\": " << r.outcomes.attempted
            << ", \"failed\": " << r.outcomes.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : r.metrics.rows()) {
    std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
