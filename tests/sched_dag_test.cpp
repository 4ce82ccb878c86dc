#include "sched/dag_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/thread_pool.hpp"

namespace stkde::sched {
namespace {

TEST(DagScheduler, RunsEveryTaskOnce) {
  DagScheduler dag;
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) dag.add_task([&] { ++count; });
  ThreadPool pool(4);
  dag.run(pool);
  EXPECT_EQ(count.load(), 20);
}

TEST(DagScheduler, EmptyDagIsFine) {
  DagScheduler dag;
  ThreadPool pool(2);
  EXPECT_NO_THROW(dag.run(pool));
  EXPECT_DOUBLE_EQ(dag.makespan(), 0.0);
}

TEST(DagScheduler, RespectsDependencies) {
  DagScheduler dag;
  std::mutex mu;
  std::vector<std::size_t> order;
  auto record = [&](std::size_t id) {
    std::lock_guard lk(mu);
    order.push_back(id);
  };
  const auto a = dag.add_task([&] { record(0); });
  const auto b = dag.add_task([&] { record(1); });
  const auto c = dag.add_task([&] { record(2); });
  dag.add_edge(a, b);
  dag.add_edge(b, c);
  ThreadPool pool(4);
  dag.run(pool);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(DagScheduler, DiamondDependency) {
  DagScheduler dag;
  std::atomic<int> stage{0};
  const auto src = dag.add_task([&] { EXPECT_EQ(stage.exchange(1), 0); });
  const auto m1 = dag.add_task([&] { EXPECT_GE(stage.load(), 1); });
  const auto m2 = dag.add_task([&] { EXPECT_GE(stage.load(), 1); });
  const auto sink = dag.add_task([&] { stage = 2; });
  dag.add_edge(src, m1);
  dag.add_edge(src, m2);
  dag.add_edge(m1, sink);
  dag.add_edge(m2, sink);
  ThreadPool pool(3);
  dag.run(pool);
  EXPECT_EQ(stage.load(), 2);
  // Sink finished last.
  EXPECT_GE(dag.finish_times()[sink], dag.finish_times()[m1]);
  EXPECT_GE(dag.start_times()[m1], dag.finish_times()[src] - 1e-9);
}

TEST(DagScheduler, PrioritiesOrderReadyTasksSingleThread) {
  DagScheduler dag;
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int id) {
    std::lock_guard lk(mu);
    order.push_back(id);
  };
  dag.add_task([&] { record(0); }, 1.0);
  dag.add_task([&] { record(1); }, 10.0);
  dag.add_task([&] { record(2); }, 5.0);
  ThreadPool pool(1);
  dag.run(pool);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(DagScheduler, DetectsCycles) {
  DagScheduler dag;
  const auto a = dag.add_task([] {});
  const auto b = dag.add_task([] {});
  dag.add_edge(a, b);
  dag.add_edge(b, a);
  ThreadPool pool(2);
  EXPECT_THROW(dag.run(pool), std::logic_error);
}

TEST(DagScheduler, DetectsPartialCycleAfterProgress) {
  DagScheduler dag;
  const auto a = dag.add_task([] {});
  const auto b = dag.add_task([] {});
  const auto c = dag.add_task([] {});
  dag.add_edge(a, b);
  dag.add_edge(b, c);
  dag.add_edge(c, b);
  ThreadPool pool(2);
  EXPECT_THROW(dag.run(pool), std::logic_error);
}

TEST(DagScheduler, PropagatesTaskExceptions) {
  DagScheduler dag;
  dag.add_task([] { throw std::runtime_error("task failed"); });
  dag.add_task([] {});
  ThreadPool pool(2);
  EXPECT_THROW(dag.run(pool), std::runtime_error);
}

TEST(DagScheduler, RejectsBadEdges) {
  DagScheduler dag;
  const auto a = dag.add_task([] {});
  EXPECT_THROW(dag.add_edge(a, a), std::invalid_argument);
  EXPECT_THROW(dag.add_edge(a, 99), std::invalid_argument);
}

TEST(DagScheduler, TimestampsAreConsistent) {
  DagScheduler dag;
  const auto a = dag.add_task(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); });
  const auto b = dag.add_task([] {});
  dag.add_edge(a, b);
  ThreadPool pool(2);
  dag.run(pool);
  EXPECT_GE(dag.finish_times()[a], dag.start_times()[a]);
  EXPECT_GE(dag.start_times()[b], dag.finish_times()[a] - 1e-9);
  EXPECT_GE(dag.makespan(), dag.finish_times()[a]);
  EXPECT_GE(dag.finish_times()[a] - dag.start_times()[a], 0.0015);
}

TEST(DagScheduler, ManyTasksManyThreads) {
  DagScheduler dag;
  std::atomic<int> count{0};
  std::vector<std::size_t> layer0, layer1;
  for (int i = 0; i < 16; ++i)
    layer0.push_back(dag.add_task([&] { ++count; }));
  for (int i = 0; i < 16; ++i)
    layer1.push_back(dag.add_task([&] { ++count; }));
  for (const auto a : layer0)
    for (const auto b : layer1) dag.add_edge(a, b);
  ThreadPool pool(8);
  dag.run(pool);
  EXPECT_EQ(count.load(), 32);
}

}  // namespace
}  // namespace stkde::sched
