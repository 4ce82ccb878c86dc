#pragma once
/// \file stats.hpp
/// The benchmark's own arithmetic: medians, the geometric mean of per-kind
/// medians, the highest percentile that still has ten samples beyond it,
/// span self time, and failure ratios. Header-only so the self-test
/// (tests/stats_test.cpp) compiles it without the library.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of \p v (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Median of \p v, or 0 when nothing was sampled (a layer idle in the run).
inline double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

/// Geometric mean of strictly positive values. Throws on an empty input or
/// a value <= 0 (a zero time means nothing was measured).
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("geomean of an empty set");
  double log_sum = 0.0;
  for (const double x : v) {
    if (!(x > 0.0)) throw std::invalid_argument("geomean of a value <= 0");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Geometric mean over kinds of each kind's median: every kind weighs the
/// same however many samples it has or how slow it is.
inline double geomean_of_medians(const std::vector<std::vector<double>>& kinds) {
  std::vector<double> medians;
  medians.reserve(kinds.size());
  for (const auto& k : kinds) medians.push_back(median(k));
  return geomean(medians);
}

/// A tail percentile: the nearest-rank value at \p pct of the sample, with
/// \p beyond samples ranked strictly above it.
struct Tail {
  double pct = 0.0;
  double value = 0.0;  ///< +inf when the rank lands on a failure
  std::size_t beyond = 0;
};

/// The highest of p99.9, p99, p95, p90, p75 and p50 that has at least ten
/// samples beyond it. Failures enter as +inf — slower than any success —
/// so a failed operation can only raise the tail, never vanish from it.
/// nullopt when even p50 has fewer than ten samples beyond it (n < 20).
inline std::optional<Tail> tail_with_ten_beyond(std::vector<double> ok,
                                                std::size_t failures) {
  ok.insert(ok.end(), failures, std::numeric_limits<double>::infinity());
  std::sort(ok.begin(), ok.end());
  const std::size_t n = ok.size();
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank, 1-based: the smallest rank covering pct of the sample.
    // Integer per-mille arithmetic keeps 99.9 exact.
    const auto permille = static_cast<std::size_t>(std::lround(pct * 10.0));
    const std::size_t rank = (permille * n + 999) / 1000;
    if (rank == 0 || n - rank < 10) continue;
    return Tail{pct, ok[rank - 1], n - rank};
  }
  return std::nullopt;
}

/// A closed-open time interval [start, end) in any unit.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Self time of a span: its duration minus the part of it that the union
/// of its children's intervals covers. Children may nest inside each
/// other, overlap (work running concurrently), or stick out of the parent
/// (clipped); a covered instant is subtracted once.
inline double self_time(const Interval& parent, std::vector<Interval> children) {
  const double dur = std::max(0.0, parent.end - parent.start);
  for (auto& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::erase_if(children, [](const Interval& c) { return !(c.end > c.start); });
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const auto& c : children) {
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return dur - covered;
}

/// Attempted/failed bookkeeping behind `fail_ratio`. Every operation is
/// counted as attempted before its outcome is known, so a failure is never
/// dropped from the denominator.
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// failed / attempted; a run that attempted nothing failed entirely (1).
  [[nodiscard]] double fail_ratio() const {
    return attempted > 0
               ? static_cast<double>(failed) / static_cast<double>(attempted)
               : 1.0;
  }
};

}  // namespace perfbench
