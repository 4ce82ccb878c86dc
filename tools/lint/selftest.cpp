/// stkde-lint self-test: drives the production pipeline (run_lint) over the
/// fixture trees and asserts that every registered check fires on its
/// positive fixture, stays silent on its negative fixture, respects
/// suppressions and scoping, and that the audit rejects bad suppressions.
/// Registered in CTest as `lint_selftest` (label: lint). Deliberately
/// gtest-free: it must build and run even in minimal configurations
/// (-DSTKDE_BUILD_TESTS=OFF), e.g. the CI lint job.
///
/// LINT_FIXTURE_DIR is injected by tools/lint/CMakeLists.txt.

#include <iostream>
#include <map>
#include <string>

#include "driver.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::cerr << "FAIL " << __FILE__ << ":" << __LINE__ << ": " #cond \
                << "\n";                                                 \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

#define EXPECT_EQ(a, b)                                                    \
  do {                                                                     \
    const auto va = (a);                                                   \
    const auto vb = (b);                                                   \
    if (!(va == vb)) {                                                     \
      std::cerr << "FAIL " << __FILE__ << ":" << __LINE__ << ": " #a       \
                << " == " #b << "  (" << va << " vs " << vb << ")\n";      \
      ++failures;                                                          \
    }                                                                      \
  } while (0)

using stkde::lint::Finding;
using stkde::lint::LintOptions;
using stkde::lint::LintResult;

LintResult lint_tree(const std::string& root,
                     std::vector<std::string> only = {}) {
  LintOptions o;
  o.root = root;
  o.files = stkde::lint::collect_tree(root);
  o.only_checks = std::move(only);
  return stkde::lint::run_lint(o);
}

std::map<std::string, int> by_check(const LintResult& r) {
  std::map<std::string, int> counts;
  for (const Finding& f : r.findings) ++counts[f.check];
  return counts;
}

bool has(const LintResult& r, const std::string& file, int line,
         const std::string& check) {
  for (const Finding& f : r.findings)
    if (f.file == file && f.line == line && f.check == check) return true;
  return false;
}

int count_in(const LintResult& r, const std::string& file,
             const std::string& check) {
  int n = 0;
  for (const Finding& f : r.findings)
    if (f.file == file && f.check == check) ++n;
  return n;
}

void dump(const LintResult& r, const char* label) {
  std::cerr << "---- findings (" << label << ") ----\n";
  for (const Finding& f : r.findings)
    std::cerr << "  " << f.file << ":" << f.line << " [" << f.check << "]\n";
}

void test_fire_tree(const std::string& fixdir) {
  const LintResult r = lint_tree(fixdir + "/fire");
  EXPECT(r.errors.empty());
  EXPECT_EQ(r.files_scanned, 8);

  // Every check demonstrably fires on its positive fixture, and fires the
  // exact number of seeded violations — no over-, no under-reporting.
  const auto counts = by_check(r);
  EXPECT_EQ(counts.size(), 7u);
  EXPECT_EQ(count_in(r, "src/sched/dag_mutex.cpp", "raw-mutex"), 5);
  EXPECT_EQ(count_in(r, "src/io/export.cpp", "checked-io"), 5);
  EXPECT_EQ(count_in(r, "src/core/seeding.cpp", "determinism"), 5);
  EXPECT_EQ(count_in(r, "src/kernels/cache_key.hpp", "float-key"), 2);
  EXPECT_EQ(count_in(r, "src/serve/wire.cpp", "wire-cast"), 2);
  EXPECT_EQ(count_in(r, "src/io/grid_io.cpp", "wire-cast"), 2);
  // The grid reader fixture fires nothing else (its .read() is not a write).
  EXPECT_EQ(count_in(r, "src/io/grid_io.cpp", "checked-io"), 0);
  EXPECT_EQ(count_in(r, "src/grid/omp_fill.cpp", "omp-runtime"), 6);
  EXPECT_EQ(count_in(r, "src/core/suppressions.cpp", "suppression-audit"), 5);
  // A well-formed suppression naming the WRONG check saves nothing.
  EXPECT_EQ(count_in(r, "src/core/suppressions.cpp", "checked-io"), 1);
  EXPECT_EQ(r.findings.size(), 33u);

  // Line anchoring: the seeded wire casts, exactly where they stand.
  EXPECT(has(r, "src/serve/wire.cpp", 11, "wire-cast"));
  EXPECT(has(r, "src/serve/wire.cpp", 15, "wire-cast"));
  EXPECT(has(r, "src/io/grid_io.cpp", 14, "wire-cast"));
  EXPECT(has(r, "src/io/grid_io.cpp", 19, "wire-cast"));
  // ...and the runtime pragma that -fopenmp-simd would silently serialize.
  EXPECT(has(r, "src/grid/omp_fill.cpp", 16, "omp-runtime"));

  if (failures != 0) dump(r, "fire");
}

void test_clean_tree(const std::string& fixdir) {
  const LintResult r = lint_tree(fixdir + "/clean");
  EXPECT(r.errors.empty());
  EXPECT_EQ(r.files_scanned, 7);
  EXPECT_EQ(r.findings.size(), 0u);
  if (!r.findings.empty()) dump(r, "clean");
}

void test_check_subset(const std::string& fixdir) {
  // --check raw-mutex over the fire tree: only raw-mutex findings, and no
  // stale-suppression reports (those need the full registry to be fair).
  const LintResult r = lint_tree(fixdir + "/fire", {"raw-mutex"});
  EXPECT(r.errors.empty());
  const auto counts = by_check(r);
  EXPECT_EQ(counts.size(), 1u);
  EXPECT_EQ(count_in(r, "src/sched/dag_mutex.cpp", "raw-mutex"), 5);

  // Unknown check names are a usage error, not a silent no-op.
  const LintResult bad = lint_tree(fixdir + "/fire", {"no-such-check"});
  EXPECT(!bad.errors.empty());
  EXPECT_EQ(bad.findings.size(), 0u);
}

void test_registry() {
  const auto registry = stkde::lint::build_registry();
  EXPECT_EQ(registry.size(), 7u);
  const char* expected[] = {"raw-mutex",   "checked-io",
                            "determinism", "float-key",
                            "wire-cast",   "omp-runtime",
                            "suppression-audit"};
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(std::string(registry[i]->name()), std::string(expected[i]));
    EXPECT(!registry[i]->rationale().empty());
  }
}

}  // namespace

int main() {
  const std::string fixdir = LINT_FIXTURE_DIR;
  test_registry();
  test_fire_tree(fixdir);
  test_clean_tree(fixdir);
  test_check_subset(fixdir);
  if (failures == 0) {
    std::cout << "lint_selftest: all assertions passed\n";
    return 0;
  }
  std::cerr << "lint_selftest: " << failures << " assertion(s) failed\n";
  return 1;
}
