#pragma once
/// \file common.hpp
/// Shared support for the per-table/per-figure bench binaries.
///
/// Scaling: bench instances come from data::laptop_catalog() under a budget
/// controlled by STKDE_BENCH_SCALE (1.0 = default caps; 0.5 = half-size
/// instances; 2.0 = bigger). STKDE_BENCH_FAST=1 shrinks everything for a
/// smoke run.
///
/// Speedup methodology (DESIGN.md §2): this harness reports, per strategy,
///  - the real measured wall time at the host's thread count, and
///  - a simulated P-processor makespan built from *measured* per-task costs
///    and measured init/bin/reduce phase times, with memory-bound phases
///    capped at STKDE_BENCH_MEMCAP-way parallelism (default 3, the paper's
///    measured init scalability at 16 threads, §6.3).
/// On a 16-core host the two agree; on smaller hosts the simulation is what
/// preserves the paper's figure shapes.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.hpp"
#include "data/instances.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace stkde::bench {

struct BenchEnv {
  data::ScaleBudget budget;
  std::vector<int> thread_sweep{1, 2, 4, 8, 16};  ///< paper's Fig. 8 sweep
  int real_threads = 1;          ///< threads used for the real measured run
  double memory_parallel_cap = 3.0;
  double max_cell_work = 2.5e9;  ///< skip cells costlier than this (ops)
  bool smoke = false;            ///< --smoke or STKDE_BENCH_FAST set

  [[nodiscard]] std::string describe() const;
};

/// CLI flags shared by every figure bench:
///   --json <path>  write the run's tables/records as a JSON artifact
///                  (nothing is written without it)
///   --smoke        shrink the instance for a seconds-long CI run
///                  (equivalent to STKDE_BENCH_FAST=1)
///   --help         print the usage and exit 0 before any work
/// Every other knob is an environment variable (listed in the usage).
struct CliOptions {
  std::optional<std::string> json_path;
  bool smoke = false;
  std::string program = "bench";  ///< argv[0], for usage errors
};

/// Parse the shared flags. Anything else — an unknown flag, a stray
/// argument, --json without a path — prints the usage on stderr and exits
/// with status 2, so a typo can never start a full run.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv);

/// Read the environment, apply the CLI, and build the bench configuration
/// (--smoke shrinks the budget the same way STKDE_BENCH_FAST=1 does). A
/// numeric variable whose whole value does not parse, or a STKDE_BENCH_FAST
/// that is not a flag value (util::env_flag), prints the reason and the
/// usage on stderr and exits 2, like a bad flag.
[[nodiscard]] BenchEnv bench_env(const CliOptions& cli);

/// Machine-readable JSON artifact: named tables (serialized row-by-row with
/// column headers as keys; numeric-looking cells become JSON numbers) plus
/// free-form scalar metadata. write() is a no-op when --json was not given,
/// so every bench can call it unconditionally.
class JsonArtifact {
 public:
  JsonArtifact(std::string bench, const BenchEnv& env, CliOptions cli);

  /// Attach a finished table under \p name.
  void add_table(const std::string& name, const util::Table& t);

  /// Top-level scalar metadata (numbers / strings / bools). The const char*
  /// overload exists so string literals don't decay to the bool overload.
  void add_scalar(const std::string& key, double v);
  void add_scalar(const std::string& key, std::int64_t v);
  void add_scalar(const std::string& key, const std::string& v);
  void add_scalar(const std::string& key, const char* v);
  void add_scalar(const std::string& key, bool v);

  /// Serialize to cli.json_path if set; prints the path written. Returns
  /// true when a file was written.
  bool write() const;

 private:
  std::string bench_;
  std::string env_describe_;
  CliOptions cli_;
  std::vector<std::pair<std::string, std::string>> scalars_;  ///< key, json
  std::vector<std::pair<std::string, std::string>> tables_;   ///< name, json
};

/// The paper's decomposition sweep: 1^3 .. 64^3 (Figs. 9-14).
[[nodiscard]] const std::vector<std::int32_t>& decomp_sweep();

/// Materialize a laptop-scaled instance (cached per name within a process).
[[nodiscard]] const data::Instance& load_instance(const data::InstanceSpec& spec);

/// Params preset for an instance (kernel/bandwidths filled from the spec).
[[nodiscard]] Params instance_params(const data::Instance& inst, int threads);

/// Print the standard bench banner (instance budget, scaling, host info).
void print_banner(const std::string& title, const BenchEnv& env);

/// Simulated makespans -------------------------------------------------------

/// Phase times measured from a real run, used to model P-thread execution.
struct PhaseModel {
  double init_seq = 0.0;    ///< sequential grid-init seconds
  double bin_seq = 0.0;     ///< sequential binning seconds
  double compute_seq = 0.0; ///< sequential compute seconds (sum of tasks)
  double mem_cap = 3.0;     ///< max parallelism of memory-bound phases
};

/// Memory-bound phase at P threads: work/min(P, cap) (paper §6.3).
[[nodiscard]] double mem_phase(double seq_seconds, int P, double cap);

/// Estimated PB-SYM-DD work in kernel-ops for a d^3 decomposition
/// (invariant tables per replicated bin entry + the cylinder accumulation).
/// Used to skip prohibitively expensive cells, like the paper skips
/// eBird Hr-Hb at fine decompositions.
[[nodiscard]] double dd_work_estimate(const data::Instance& inst,
                                      const data::InstanceSpec& spec,
                                      std::int32_t d);

/// DR at P threads: P replica inits + perfectly-parallel compute + P-replica
/// reduction, from the measured sequential phases of PB-SYM.
[[nodiscard]] double simulate_dr_seconds(const PhaseModel& m, int P);

/// Would this memory requirement OOM on the *paper's* machine? Laptop
/// scaling flattens grid-size ratios, so OOM verdicts (Figs. 8/14) are
/// taken at paper scale: laptop bytes are scaled by the instance's
/// paper/laptop grid ratio, the point storage is added, and the total is
/// compared with the paper's 128 GB (with a small OS allowance).
[[nodiscard]] bool paper_scale_oom(const data::InstanceSpec& laptop_spec,
                                   std::uint64_t laptop_bytes_needed);

}  // namespace stkde::bench
