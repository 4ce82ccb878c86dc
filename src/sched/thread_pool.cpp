#include "sched/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "util/failpoint.hpp"

namespace stkde::sched {

namespace {

// The pool whose worker loop runs on this thread, and the worker's index in
// it; set once when the worker starts.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local int tl_index = -1;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    util::LockGuard lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> fn) {
  submit(std::move(fn), Priority::kNormal, nullptr);
}

void ThreadPool::submit(std::function<void()> fn, Priority pri,
                        CancelToken cancel) {
  // Chaos site: models task-queue exhaustion / allocation failure at
  // submission; throws before the task is enqueued, so callers observe a
  // clean "nothing ran" failure.
  STKDE_FAILPOINT("pool.submit");
  {
    util::LockGuard lk(mu_);
    queues_[static_cast<std::size_t>(pri)].push_back(
        Task{std::move(fn), std::move(cancel)});
  }
  cv_work_.notify_one();
}

void ThreadPool::wait_idle() {
  util::UniqueLock lk(mu_);
  while (!(queues_empty() && active_ == 0)) cv_idle_.wait(lk);
  if (first_error_) {
    auto e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& body) {
  // Per-call state on this frame: the wait below outlives every task that
  // references it. An error moves `next` past n, so no task starts another
  // index.
  struct Loop {
    std::atomic<std::int64_t> next{0};
    util::Mutex mu;
    util::CondVar cv;
    std::int64_t running STKDE_GUARDED_BY(mu) = 0;
    std::exception_ptr error STKDE_GUARDED_BY(mu);
  } loop;
  // One task done, keeping the first error. The notify stays under the
  // lock: once running reads 0 the caller may return and destroy cv.
  const auto finish = [&loop, n](std::exception_ptr e) {
    if (e) loop.next.store(n);
    util::LockGuard lk(loop.mu);
    if (!loop.error) loop.error = std::move(e);
    if (--loop.running == 0) loop.cv.notify_all();
  };
  for (std::int64_t t = 0; t < std::min<std::int64_t>(n, size()); ++t) {
    {
      util::LockGuard lk(loop.mu);
      ++loop.running;
    }
    try {
      submit([&loop, &body, &finish, n] {
        std::exception_ptr err;
        try {
          for (std::int64_t i = loop.next++; i < n; i = loop.next++) body(i);
        } catch (...) {
          err = std::current_exception();
        }
        finish(std::move(err));
      });
    } catch (...) {
      finish(std::current_exception());
      break;
    }
  }
  util::UniqueLock lk(loop.mu);
  while (loop.running > 0) loop.cv.wait(lk);
  if (loop.error) std::rethrow_exception(loop.error);
}

int ThreadPool::worker_index() const {
  return tl_pool == this ? tl_index : -1;
}

std::uint64_t ThreadPool::cancelled() const {
  util::LockGuard lk(mu_);
  return cancelled_;
}

void ThreadPool::worker_loop(int index) {
  tl_pool = this;
  tl_index = index;
  for (;;) {
    std::function<void()> body;
    {
      util::UniqueLock lk(mu_);
      while (!stop_ && queues_empty()) cv_work_.wait(lk);
      if (queues_empty()) {
        if (stop_) return;
        continue;
      }
      auto& q = !queues_[0].empty() ? queues_[0]
                : !queues_[1].empty() ? queues_[1]
                                      : queues_[2];
      Task t = std::move(q.front());
      q.pop_front();
      if (t.cancel && t.cancel->load(std::memory_order_acquire)) {
        // Skipped, not run: count it and keep the idle invariant — this
        // dequeue may have been the one emptying the queues.
        ++cancelled_;
        if (queues_empty() && active_ == 0) cv_idle_.notify_all();
        continue;
      }
      body = std::move(t.fn);
      ++active_;
    }
    try {
      body();
    } catch (...) {
      util::LockGuard lk(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      util::LockGuard lk(mu_);
      --active_;
      if (queues_empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace stkde::sched
