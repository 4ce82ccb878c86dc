#include "sched/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sched/dag_scheduler.hpp"

namespace stkde::sched {
namespace {

/// Holds the pool's one worker on a gate so tests can stack the queues
/// deterministically before any dequeue happens.
class WorkerGate {
 public:
  explicit WorkerGate(ThreadPool& pool) {
    pool.submit([this] {
      std::unique_lock<std::mutex> lk(mu_);
      started_ = true;
      cv_.notify_all();
      while (!open_) cv_.wait(lk);
    });
    std::unique_lock<std::mutex> lk(mu_);
    while (!started_) cv_.wait(lk);
  }

  void open() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }

  ~WorkerGate() { open(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool open_ = false;
};

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, MinimumOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, WaitIdleCanBeCalledRepeatedly) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait_idle();
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool remains usable afterwards.
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, TasksRunOnWorkerThreads) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::thread::id> ids;
  for (int i = 0; i < 64; ++i)
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard lk(mu);
      ids.insert(std::this_thread::get_id());
    });
  pool.wait_idle();
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 3u);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++count; });
    // No wait_idle: destructor must still run everything.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, StrictPriorityOrderAtDequeue) {
  ThreadPool pool(1);
  WorkerGate gate(pool);  // queue everything before the worker frees up
  std::mutex mu;
  std::vector<int> order;
  const auto record = [&](int v) {
    return [&mu, &order, v] {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(v);
    };
  };
  pool.submit(record(30), Priority::kLow);
  pool.submit(record(10), Priority::kHigh);
  pool.submit(record(20));  // plain submit is kNormal
  pool.submit(record(31), Priority::kLow);
  pool.submit(record(11), Priority::kHigh);
  gate.open();
  pool.wait_idle();
  // Strict levels, FIFO within a level.
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 30, 31}));
}

TEST(ThreadPool, CancelledTasksAreSkippedAtDequeue) {
  ThreadPool pool(1);
  WorkerGate gate(pool);
  auto flag = std::make_shared<std::atomic<bool>>(false);
  std::atomic<int> ran{0};
  pool.submit([&] { ++ran; }, Priority::kNormal, flag);
  pool.submit([&] { ++ran; }, Priority::kNormal, flag);
  pool.submit([&] { ++ran; }, Priority::kNormal);  // no token: must run
  // One store cancels every queued task tagged with the flag — none of
  // them ever starts.
  flag->store(true);
  gate.open();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(pool.cancelled(), 2u);
}

TEST(ThreadPool, CancellingEverythingStillReachesIdle) {
  // The idle invariant survives an all-cancelled queue: wait_idle must
  // return even though no task body ever runs after the gate opens.
  ThreadPool pool(1);
  WorkerGate gate(pool);
  auto flag = std::make_shared<std::atomic<bool>>(true);  // born cancelled
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&] { ++ran; }, Priority::kLow, flag);
  gate.open();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(pool.cancelled(), 8u);
  // The pool is fully usable afterwards.
  pool.submit([&] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, CancelTokenDoesNotAffectRunningTasks) {
  ThreadPool pool(2);
  auto flag = std::make_shared<std::atomic<bool>>(false);
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  pool.submit(
      [&] {
        std::unique_lock<std::mutex> lk(mu);
        entered = true;
        cv.notify_all();
        while (!release) cv.wait(lk);
      },
      Priority::kNormal, flag);
  {
    std::unique_lock<std::mutex> lk(mu);
    while (!entered) cv.wait(lk);
  }
  // Cancelling after dequeue is a no-op: the task finishes normally.
  flag->store(true);
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
    cv.notify_all();
  }
  pool.wait_idle();
  EXPECT_EQ(pool.cancelled(), 0u);
}

TEST(ThreadPool, ParallelForRunsEachIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  // An empty range submits nothing and returns at once.
  pool.parallel_for(0, [](std::int64_t) { FAIL() << "body ran for n = 0"; });
}

TEST(ThreadPool, ParallelForWaitsForSiblingsThenRethrows) {
  ThreadPool pool(2);
  std::atomic<bool> slow_started{false}, slow_done{false};
  EXPECT_THROW(
      pool.parallel_for(2,
                        [&](std::int64_t i) {
                          if (i == 0) {
                            slow_started = true;
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(50));
                            slow_done = true;
                            return;
                          }
                          // Throw while the slow sibling is mid-body.
                          while (!slow_started) std::this_thread::yield();
                          throw std::runtime_error("body failed");
                        }),
      std::runtime_error);
  // parallel_for returned only after the slower sibling finished.
  EXPECT_TRUE(slow_done.load());
  // The pool runs new work afterwards, and the error was not left behind
  // for wait_idle to rethrow.
  std::atomic<int> ran{0};
  pool.submit([&] { ++ran; });
  EXPECT_NO_THROW(pool.wait_idle());
  pool.parallel_for(8, [&](std::int64_t) { ++ran; });
  EXPECT_EQ(ran.load(), 9);
}

// worker_index() is what per-worker scratch is indexed by: inside every
// parallel_for body and DAG task it names a slot in [0, size()), each
// worker keeps one slot, and two tasks running at the same time never share
// one (each task holds its slot's in-use flag while it runs). Off the
// workers — on the caller, on another pool's worker — it is -1.
TEST(ThreadPool, WorkerIndexIsAPrivateSlotPerRunningTask) {
  ThreadPool pool(4);
  std::array<std::atomic<bool>, 4> in_use{};
  std::atomic<int> out_of_range{0}, shared{0};
  std::mutex mu;
  std::map<std::thread::id, std::set<int>> slots_of_thread;
  const auto task = [&] {
    const int w = pool.worker_index();
    {
      std::lock_guard<std::mutex> lk(mu);
      slots_of_thread[std::this_thread::get_id()].insert(w);
    }
    if (w < 0 || w >= pool.size()) {
      ++out_of_range;
      return;
    }
    if (in_use[static_cast<std::size_t>(w)].exchange(true)) ++shared;
    std::this_thread::yield();  // let the other workers overlap this task
    in_use[static_cast<std::size_t>(w)].store(false);
  };
  pool.parallel_for(4000, [&](std::int64_t) { task(); });
  DagScheduler dag;
  for (int i = 0; i < 1000; ++i) dag.add_task(task, i % 7);
  dag.run(pool);
  EXPECT_EQ(out_of_range.load(), 0);
  EXPECT_EQ(shared.load(), 0);
  std::set<int> used;
  for (const auto& [tid, slots] : slots_of_thread) {
    EXPECT_EQ(slots.size(), 1u) << "a worker changed its slot";
    used.insert(slots.begin(), slots.end());
  }
  EXPECT_EQ(used.size(), slots_of_thread.size()) << "two workers share a slot";

  EXPECT_EQ(pool.worker_index(), -1);  // the caller
  ThreadPool other(2);
  std::atomic<int> foreign{0}, own_bad{0};
  other.parallel_for(64, [&](std::int64_t) {
    if (pool.worker_index() != -1) ++foreign;
    const int w = other.worker_index();
    if (w < 0 || w >= other.size()) ++own_bad;
  });
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(own_bad.load(), 0);
}

}  // namespace
}  // namespace stkde::sched
