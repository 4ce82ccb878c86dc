// Self-test of the benchmark's own arithmetic (src/stats.hpp): the geometric
// mean of medians, the highest percentile with ten samples beyond it
// (failures entering as +inf), span self time with nested and overlapping
// children, and fail_ratio denominators. Exits non-zero on any failure.

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

template <class F>
bool throws(F f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> iota(int n) {  // 1, 2, ..., n
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;
  const double inf = std::numeric_limits<double>::infinity();

  // Median: odd, even, unsorted input.
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(throws([] { (void)median({}); }));

  // Geometric mean of medians: each kind counts once, whatever its sample
  // count or scale.
  CHECK(near(geomean({2.0, 8.0}), 4.0));
  CHECK(near(geomean({5.0}), 5.0));
  CHECK(throws([] { (void)geomean({1.0, 0.0}); }));
  CHECK(throws([] { (void)geomean({}); }));
  CHECK(near(geomean_of_medians({{1.0, 2.0, 100.0}, {8.0}}), 4.0));        // medians 2, 8
  CHECK(near(geomean_of_medians({{10.0, 10.0, 10.0, 10.0}, {1000.0}}), 100.0));
  CHECK(near(geomean_of_medians({{1.0, 3.0}, {2.0, 2.0, 50.0}, {4.0}}), std::cbrt(16.0)));  // medians 2, 2, 4

  // Tail: fewer than 20 samples has no percentile with ten beyond it.
  CHECK(!tail_with_ten_beyond(iota(19), 0).has_value());
  // 20 samples: p50 is rank 10 (value 10), ten beyond.
  {
    const auto t = tail_with_ten_beyond(iota(20), 0);
    CHECK(t && t->pct == 50.0 && t->value == 10.0 && t->beyond == 10);
  }
  // 100 samples: p90 is rank 90, ten beyond; p95 would leave only five.
  {
    const auto t = tail_with_ten_beyond(iota(100), 0);
    CHECK(t && t->pct == 90.0 && t->value == 90.0 && t->beyond == 10);
  }
  // 1000 samples: p99 (rank 990), ten beyond.
  {
    const auto t = tail_with_ten_beyond(iota(1000), 0);
    CHECK(t && t->pct == 99.0 && t->value == 990.0 && t->beyond == 10);
  }
  // 10000 samples: p99.9 (rank 9990), exactly ten beyond.
  {
    const auto t = tail_with_ten_beyond(iota(10000), 0);
    CHECK(t && t->pct == 99.9 && t->value == 9990.0 && t->beyond == 10);
  }
  // Failures enter as +inf: 95 successes + 5 failures still pick p90 over
  // n = 100, at the 90th success; 85 + 15 failures put +inf at the p90 rank.
  {
    const auto t = tail_with_ten_beyond(iota(95), 5);
    CHECK(t && t->pct == 90.0 && t->value == 90.0 && t->beyond == 10);
    const auto u = tail_with_ten_beyond(iota(85), 15);
    CHECK(u && u->pct == 90.0 && u->value == inf);
  }
  // Failures count toward n: 15 successes + 5 failures reach n = 20.
  {
    const auto t = tail_with_ten_beyond(iota(15), 5);
    CHECK(t && t->pct == 50.0 && t->value == 10.0);
  }

  // Self time.
  CHECK(near(self_time({0, 10}, {}), 10.0));
  CHECK(near(self_time({0, 10}, {{2, 4}, {6, 7}}), 7.0));       // disjoint
  CHECK(near(self_time({0, 10}, {{2, 6}, {4, 8}}), 4.0));       // overlapping
  CHECK(near(self_time({0, 10}, {{2, 8}, {3, 5}}), 4.0));       // nested
  CHECK(near(self_time({0, 10}, {{1, 3}, {2, 9}, {4, 5}}), 2.0));
  CHECK(near(self_time({0, 10}, {{-5, 2}, {9, 15}}), 7.0));     // clipped
  CHECK(near(self_time({0, 10}, {{0, 10}, {0, 10}}), 0.0));     // duplicate
  CHECK(near(self_time({0, 10}, {{3, 3}, {12, 20}}), 10.0));    // empty / outside
  CHECK(near(self_time({0, 10}, {{5, 6}, {1, 2}}), 8.0));       // unsorted
  CHECK(near(self_time({0, 10}, {{1, 4}, {4, 6}}), 5.0));       // touching

  // fail_ratio: failures stay in the denominator.
  {
    Outcomes o;
    CHECK(o.fail_ratio() == 1.0);  // nothing attempted: total failure
    o.record(true);
    o.record(false);
    o.record(true);
    o.record(true);
    CHECK(o.attempted == 4 && o.failed == 1 && near(o.fail_ratio(), 0.25));
    o.record(false);
    CHECK(o.attempted == 5 && o.failed == 2 && near(o.fail_ratio(), 0.4));
    Outcomes all_fail;
    all_fail.record(false);
    all_fail.record(false);
    CHECK(all_fail.fail_ratio() == 1.0);
  }

  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
