#include "sched/dag_scheduler.hpp"

#include <algorithm>
#include <exception>
#include <queue>
#include <stdexcept>

#include "sched/coloring.hpp"
#include "sched/stencil_graph.hpp"
#include "sched/thread_pool.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace stkde::sched {

std::size_t DagScheduler::add_task(std::function<void()> fn, double priority) {
  tasks_.push_back(Task{std::move(fn), priority});
  succ_.emplace_back();
  pred_count_.push_back(0);
  return tasks_.size() - 1;
}

void DagScheduler::add_edge(std::size_t from, std::size_t to) {
  if (from >= tasks_.size() || to >= tasks_.size() || from == to)
    throw std::invalid_argument("DagScheduler::add_edge: bad endpoints");
  succ_[from].push_back(to);
  ++pred_count_[to];
}

double DagScheduler::makespan() const {
  double m = 0.0;
  for (const double f : finish_) m = std::max(m, f);
  return m;
}

void DagScheduler::run(ThreadPool& pool) {
  const std::size_t n = tasks_.size();
  start_.assign(n, 0.0);
  finish_.assign(n, 0.0);
  if (n == 0) return;

  // All pull-shared state is annotated: the thread safety analysis
  // (docs/ANALYSIS.md) proves every touch of the guarded members holds mu,
  // the same discipline as ThreadPool. start_/finish_ are written under mu
  // by the pull that claimed the task, and read after wait_idle.
  struct Shared {
    util::Mutex mu;
    // max-heap of (priority, id)
    std::priority_queue<std::pair<double, std::size_t>> ready
        STKDE_GUARDED_BY(mu);
    std::vector<std::size_t> pending STKDE_GUARDED_BY(mu);
    std::size_t done STKDE_GUARDED_BY(mu) = 0;
    std::exception_ptr error STKDE_GUARDED_BY(mu);  ///< set: start nothing
  } sh;

  std::size_t sources = 0;
  {
    util::LockGuard lk(sh.mu);  // pre-submit seeding, still lock-disciplined
    sh.pending = pred_count_;
    for (std::size_t i = 0; i < n; ++i)
      if (sh.pending[i] == 0) sh.ready.emplace(tasks_[i].priority, i);
    sources = sh.ready.size();
  }
  if (sources == 0) throw std::logic_error("DagScheduler: no source task (cycle)");

  util::Timer clock;
  auto fail = [&sh](std::exception_ptr e) {
    util::LockGuard lk(sh.mu);
    if (!sh.error) sh.error = std::move(e);
  };
  // One pull per task that became ready; a pull starts the highest-priority
  // ready task, which need not be the one that submitted it.
  std::function<void()> pull;
  pull = [&] {
    std::size_t id = 0;
    {
      util::LockGuard lk(sh.mu);
      if (sh.error || sh.ready.empty()) return;
      id = sh.ready.top().second;
      sh.ready.pop();
      start_[id] = clock.seconds();
    }
    try {
      tasks_[id].fn();
      std::size_t released = 0;
      {
        util::LockGuard lk(sh.mu);
        finish_[id] = clock.seconds();
        ++sh.done;
        for (const std::size_t s : succ_[id])
          if (--sh.pending[s] == 0) {
            sh.ready.emplace(tasks_[s].priority, s);
            ++released;
          }
      }
      for (; released > 0; --released) pool.submit([&pull] { pull(); });
    } catch (...) {
      fail(std::current_exception());
    }
  };
  try {
    for (std::size_t i = 0; i < sources; ++i)
      pool.submit([&pull] { pull(); });
  } catch (...) {
    fail(std::current_exception());
  }
  // Pulls submit their successors' pulls before they finish, so the pool
  // is idle only once no pull is queued or running.
  pool.wait_idle();

  std::exception_ptr error;
  std::size_t done = 0;
  {
    util::LockGuard lk(sh.mu);
    error = sh.error;
    done = sh.done;
  }
  if (error) std::rethrow_exception(error);
  // Every pull ran and some task never became ready: a dependency cycle.
  if (done != n) throw std::logic_error("DagScheduler: dependency cycle");
}

void add_color_edges(DagScheduler& dag, const StencilGraph& g,
                     const Coloring& col,
                     const std::vector<std::size_t>& task_of) {
  const auto task = [&task_of](std::int64_t v) {
    const auto sv = static_cast<std::size_t>(v);
    return task_of.empty() ? sv : task_of[sv];
  };
  for (std::int64_t v = 0; v < g.vertex_count(); ++v)
    g.for_neighbors(v, [&](std::int64_t u) {
      if (col.color[static_cast<std::size_t>(v)] <
          col.color[static_cast<std::size_t>(u)])
        dag.add_edge(task(v), task(u));
    });
}

}  // namespace stkde::sched
