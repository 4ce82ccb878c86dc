#pragma once
/// \file dag_scheduler.hpp
/// Dependency-counting list scheduler for task DAGs.
///
/// This is the execution engine behind PB-SYM-PD-SCHED and PB-SYM-PD-REP:
/// a task becomes ready when all predecessors finished; ready tasks are
/// started highest-priority-first (priority = task load, so the heaviest
/// subdomains run as early as possible — the paper's §5.2 rationale). The
/// resulting execution is a greedy list schedule, so Graham's bound applies.
///
/// The scheduler owns no threads: run() executes on a sched::ThreadPool.
/// Every task that becomes ready submits one "pull" to the pool, and each
/// pull starts the highest-priority task ready at that moment.
///
/// Start/finish timestamps are recorded per task; the harness feeds them to
/// the simulator to cross-check makespans.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace stkde::sched {

struct Coloring;
class StencilGraph;
class ThreadPool;

class DagScheduler {
 public:
  /// Add a task; returns its id. Higher \p priority runs earlier among ready.
  std::size_t add_task(std::function<void()> fn, double priority = 0.0);

  /// Order: \p from must complete before \p to may start.
  void add_edge(std::size_t from, std::size_t to);

  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }

  /// Execute the whole DAG on \p pool's workers. Throws std::logic_error
  /// on a dependency cycle and rethrows the first task exception (no task
  /// starts after it). Waits with ThreadPool::wait_idle, so \p pool must
  /// be free of unrelated work and run() must not be called from the
  /// pool's own tasks.
  void run(ThreadPool& pool);

  /// Seconds from run() start to each task's start/finish (valid after run).
  [[nodiscard]] const std::vector<double>& start_times() const {
    return start_;
  }
  [[nodiscard]] const std::vector<double>& finish_times() const {
    return finish_;
  }
  /// Max finish time (valid after run()).
  [[nodiscard]] double makespan() const;

 private:
  struct Task {
    std::function<void()> fn;
    double priority = 0.0;
  };
  std::vector<Task> tasks_;
  std::vector<std::vector<std::size_t>> succ_;
  std::vector<std::size_t> pred_count_;
  std::vector<double> start_, finish_;
};

/// Orient every stencil edge of \p g from the lower to the higher color of
/// \p col (paper Fig. 6): one edge task_of[v] -> task_of[u] per neighbor
/// pair with color[v] < color[u]. An empty \p task_of maps vertex v to
/// task v.
void add_color_edges(DagScheduler& dag, const StencilGraph& g,
                     const Coloring& col,
                     const std::vector<std::size_t>& task_of = {});

}  // namespace stkde::sched
