#pragma once
/// \file thread_pool.hpp
/// A fixed-size worker pool: the repo's one parallel runtime. Every
/// parallel strategy runs on it — DR, DD, PD and PB-TILE through
/// parallel_for, PD-SCHED/REP through the DAG scheduler (sched/
/// dag_scheduler.hpp), which sits on top of submit() — as do the streaming
/// engine's ingest waves and the serve executor. Keeping the pool separate
/// lets tests exercise pool semantics (ordering, reuse, exception
/// propagation) independently of DAG logic.
///
/// Priorities: three strict levels (kHigh > kNormal > kLow). A worker
/// always drains higher levels first — under overload this is what lets
/// the serve executor keep cheap point/health lookups flowing while
/// expensive region-grid scans queue behind them. Starvation of kLow under
/// sustained kHigh pressure is the *intended* policy (admission control
/// bounds how long anything waits; see serve/admission.hpp). Same-level
/// tasks stay FIFO, and plain submit() is kNormal, so existing callers see
/// the original ordering contract unchanged.
///
/// Cancellation: submit() optionally takes a shared cancel flag. A task
/// whose flag is set by the time a worker dequeues it is *skipped* — never
/// run, counted in cancelled() — which turns "cancel the queued work of a
/// dead request" from a per-task dance into one atomic store. Tasks
/// already running are not interrupted (cooperative cancellation inside
/// the task body is the serve executor's job).

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace stkde::sched {

/// Strict task priority: workers never run a lower level while a higher
/// one has queued work.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

/// Shared cancellation flag: set it to true and every not-yet-dequeued
/// task submitted with it is skipped.
using CancelToken = std::shared_ptr<const std::atomic<bool>>;

class ThreadPool {
 public:
  /// Spawns \p threads workers (minimum 1).
  explicit ThreadPool(int threads);

  /// Joins all workers; pending tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task at kNormal. Tasks run in FIFO order per worker
  /// availability (the original, priority-free contract).
  void submit(std::function<void()> fn) STKDE_EXCLUDES(mu_);

  /// Enqueue a task at \p pri, optionally tagged with a cancel flag; if
  /// the flag reads true at dequeue the task is dropped unrun.
  void submit(std::function<void()> fn, Priority pri,
              CancelToken cancel = nullptr) STKDE_EXCLUDES(mu_);

  /// Block until the queue is empty and all workers are idle. If any task
  /// threw, rethrows the first captured exception.
  void wait_idle() STKDE_EXCLUDES(mu_);

  /// Run body(i) for every i in [0, n) on the workers and block until done.
  /// Indices are handed out dynamically, one at a time, to at most size()
  /// tasks (OpenMP's schedule(dynamic)); which worker runs an index is
  /// unspecified, so per-index outputs must not depend on it. Returns only
  /// after every submitted task has finished — also when a body or a
  /// submit throws — and then rethrows the first error; after an error no
  /// further index is started. Must not be called from the pool's own
  /// tasks: the caller blocks while the workers run the bodies.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& body)
      STKDE_EXCLUDES(mu_);

  /// Tasks dropped at dequeue because their cancel flag was set.
  [[nodiscard]] std::uint64_t cancelled() const STKDE_EXCLUDES(mu_);

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// The calling thread's index among this pool's workers, in [0, size()),
  /// or -1 on any other thread (the caller, another pool's worker). Fixed
  /// for a worker's life, and no two workers share one, so a task may index
  /// per-worker scratch with it: two tasks running at the same time never
  /// get the same index, and each index is used by one thread only.
  [[nodiscard]] int worker_index() const;

 private:
  struct Task {
    std::function<void()> fn;
    CancelToken cancel;
  };

  [[nodiscard]] bool queues_empty() const STKDE_REQUIRES(mu_) {
    return queues_[0].empty() && queues_[1].empty() && queues_[2].empty();
  }

  void worker_loop(int index) STKDE_EXCLUDES(mu_);

  std::vector<std::thread> workers_;  ///< written once in the constructor
  mutable util::Mutex mu_;
  std::array<std::deque<Task>, 3> queues_ STKDE_GUARDED_BY(mu_);
  util::CondVar cv_work_;  ///< signaled per submit and at shutdown
  util::CondVar cv_idle_;  ///< signaled when queues drain and active_ == 0
  std::size_t active_ STKDE_GUARDED_BY(mu_) = 0;
  std::uint64_t cancelled_ STKDE_GUARDED_BY(mu_) = 0;
  bool stop_ STKDE_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ STKDE_GUARDED_BY(mu_);
};

}  // namespace stkde::sched
