#pragma once
/// \file dashboard.hpp
/// The dashboard client every workload shares: one SKW1 refresh is eleven
/// queries (4 density_at : 2 region_sum : 1 region_max : 2 slice :
/// 1 hotspots : 1 region_grid) over the most recent days, submitted
/// together through a RequestExecutor; the refresh ends when the last
/// answer is decoded. Answers are checked against the same computation on
/// the pinned grid; traced refreshes are also replayed stage by stage.

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "geom/domain.hpp"
#include "serve/executor.hpp"
#include "serve/snapshot_registry.hpp"
#include "serve/wire.hpp"

namespace perfbench {

inline constexpr std::array<const char*, 6> kQueryKinds{
    "density_at", "region_sum", "region_max", "slice", "hotspots", "region_grid"};

/// Index into kQueryKinds of a query.
std::size_t kind_index(const stkde::serve::wire::QueryMessage& q);

/// Draw one refresh: eleven queries over days (t_focus - recent, t_focus].
std::vector<stkde::serve::wire::QueryMessage> make_refresh(
    const stkde::DomainSpec& dom, std::int32_t t_focus, std::int32_t recent,
    std::mt19937_64& rng);

/// Per-stage replay timings of traced refreshes, microseconds.
struct StageSamples {
  std::vector<double> decode_us, pin_us, encode_us;
  std::array<std::vector<double>, 6> execute_us;
  std::vector<double> quantile_ms, clusters_ms;
};

class Dashboard {
 public:
  Dashboard(const stkde::serve::SnapshotRegistry& reg,
            stkde::serve::RequestExecutor& exec, Tracer& tracer);

  /// Submit every query, wait for and decode every answer. Returns the
  /// refresh time (ms, first submit to last answer decoded). Every answer
  /// counts as one attempted operation in \p out; an undecodable or error
  /// answer is a failure. When every answer came from the version this
  /// client pinned before submitting, kinds not yet checked are compared
  /// with the same computation on that pinned grid (one more attempted
  /// operation each). \p traced records spans and replays the stages.
  double refresh(const std::vector<stkde::serve::wire::QueryMessage>& queries,
                 std::uint64_t request, bool traced, Outcomes& out);

  [[nodiscard]] const StageSamples& stages() const { return stages_; }
  /// Executor latency (ms, submit to answer observed) per kind.
  [[nodiscard]] const std::array<std::vector<double>, 6>& latency_ms() const {
    return latency_ms_;
  }
  /// One report line per query kind: median, count and tail of its latency.
  [[nodiscard]] std::vector<std::string> describe_kinds() const;
  /// Kinds compared with the pinned-grid computation so far.
  [[nodiscard]] int kinds_checked() const;
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  bool check(const stkde::serve::Snapshot& snap,
             const stkde::serve::wire::QueryMessage& q,
             const stkde::serve::wire::ResponseMessage& r) const;
  void replay(const stkde::serve::wire::QueryMessage& q,
              const stkde::serve::wire::Frame& frame);

  const stkde::serve::SnapshotRegistry& reg_;
  stkde::serve::RequestExecutor& exec_;
  Tracer& tracer_;
  std::array<bool, 6> checked_{};
  StageSamples stages_;
  std::array<std::vector<double>, 6> latency_ms_;
  std::vector<std::string> failures_;
};

/// The serve/analysis per-layer metrics from a dashboard's samples and the
/// executor's and registry's counters; zeros (with a note) when no traced
/// refresh ran.
void serve_layer_metrics(const Dashboard& dash,
                         const stkde::serve::ExecutorStats& es,
                         const stkde::serve::RegistryStats& rs,
                         PhaseResult& out);

}  // namespace perfbench
