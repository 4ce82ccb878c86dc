#pragma once
/// \file common.hpp
/// Shared plumbing of perfbench_run: options, the metric sheet, the
/// span recorder of traced runs, and small readers of process state.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one invocation of perfbench_run does.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;  ///< timed-loop length (run phase)
  bool trace = false;    ///< record spans and per-layer metrics
  /// "probe": a fresh process that times its cold set-up, runs to the
  /// fixed operation count, reads peak RSS there and exits. "run": the
  /// timed closed loop.
  std::string phase = "run";
};

/// Busy-thread budget of a workload: refused when it exceeds the cores.
struct ThreadPlan {
  int parallel = 2;  ///< threads of each parallel section
  int busy = 0;      ///< most threads the workload keeps busy at once
  std::string detail;
};

/// An ordered sheet of named metrics with units.
class Metrics {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    if (!index_.contains(name)) {
      index_[name] = rows_.size();
      rows_.push_back({name, value, unit});
    } else {
      rows_[index_[name]] = {name, value, unit};
    }
  }
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
  std::map<std::string, std::size_t> index_;
};

/// What a phase hands back to main(): verdict counts, the metric sheet,
/// and report lines printed above the result.
struct PhaseResult {
  Outcomes outcomes;
  Metrics metrics;
  std::vector<std::string> report;
};

/// One recorded span (times in seconds on the steady clock).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;           ///< index of the causing span, -1 for a root
  std::uint64_t request = 0; ///< shared by every span of one operation
};

/// In-memory span recorder for traced runs. Thread-safe: the live
/// workload's writer and client record concurrently. A disabled recorder
/// costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Open a span now; returns its id (-1 when disabled).
  int open(const std::string& name, std::uint64_t request, int parent = -1) {
    if (!enabled_) return -1;
    const double t = now_s();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, t, t, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    const double t = now_s();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  /// Record an already-timed span.
  int add(const std::string& name, double start, double end,
          std::uint64_t request, int parent = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Durations (ms) of every span named \p name.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const auto& s : spans_)
      if (s.name == name) out.push_back((s.end - s.start) * 1e3);
    return out;
  }

  /// Self times (ms) of every span named \p name: duration minus the
  /// union of its direct children's intervals.
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::vector<Interval>> kids(spans_.size());
    for (const auto& s : spans_)
      if (s.parent >= 0)
        kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name)
        out.push_back(self_time({spans_[i].start, spans_[i].end}, kids[i]) * 1e3);
    return out;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Peak resident set size of this process so far (VmHWM), in MB (1e6 B).
double peak_rss_mb();

/// Median, sample count and ten-beyond tail of \p v as one report line.
std::string describe(const std::string& name, const std::vector<double>& v,
                     std::size_t failures, const std::string& unit);

/// Seventeen significant digits (round-trips a double), for JSON values.
std::string fmt(double v);

/// Four significant digits, for report text ("inf"/"nan" spelled out).
std::string num(double v);

}  // namespace perfbench
