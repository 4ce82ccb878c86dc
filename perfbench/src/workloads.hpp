#pragma once
/// \file workloads.hpp
/// The benchmark's workloads (perfbench/README.md has the table).

#include "common.hpp"

namespace perfbench {

/// batch-pollen / batch-flu: closed loop, one estimate at a time over one
/// input, five strategies round-robin, a dashboard refresh per round.
PhaseResult run_batch(const Options& o);

/// live-dengue: a writer feeding daily batches through the sharded
/// streaming engine into a snapshot registry, beside one dashboard client.
PhaseResult run_live(const Options& o);

/// Threads each workload runs with; main() refuses a plan whose busy
/// threads exceed the cores.
ThreadPlan thread_plan(const std::string& workload);

/// Host fingerprint and noise record, printed on every result and, in a
/// traced run, reported as metrics. \p ref_ms holds the reference-loop
/// timings taken through the run; \p steal the steal share over it.
void host_record(const std::vector<double>& ref_ms, double steal,
                 bool as_metrics, PhaseResult& out);

}  // namespace perfbench
