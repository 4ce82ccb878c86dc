// Cross-component scheduling integration: the real DagScheduler's behaviour
// must be consistent with the list-schedule simulator the bench harness
// uses to extrapolate thread sweeps — otherwise the reproduced figures
// would not describe this implementation.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "sched/coloring.hpp"
#include "sched/critical_path.hpp"
#include "sched/dag_scheduler.hpp"
#include "sched/simulator.hpp"
#include "sched/thread_pool.hpp"
#include "util/rng.hpp"

namespace stkde::sched {
namespace {

/// Build the colored stencil DAG in a DagScheduler with sleep-tasks of the
/// given costs (milliseconds); return the measured makespan (seconds).
double run_real_dag(const StencilGraph& g, const Coloring& c,
                    const std::vector<double>& cost_ms, int P) {
  DagScheduler dag;
  for (std::int64_t v = 0; v < g.vertex_count(); ++v) {
    const double ms = cost_ms[static_cast<std::size_t>(v)];
    dag.add_task(
        [ms] {
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<std::int64_t>(ms * 1000)));
        },
        ms);
  }
  for (std::int64_t v = 0; v < g.vertex_count(); ++v) {
    g.for_neighbors(v, [&](std::int64_t u) {
      if (c.color[static_cast<std::size_t>(v)] <
          c.color[static_cast<std::size_t>(u)])
        dag.add_edge(static_cast<std::size_t>(v), static_cast<std::size_t>(u));
    });
  }
  ThreadPool pool(P);
  dag.run(pool);
  return dag.makespan();
}

TEST(SchedIntegration, RealExecutionRespectsCriticalPathLowerBound) {
  const StencilGraph g(3, 3, 1);
  util::Xoshiro256 rng(3);
  std::vector<double> cost_ms(9);
  for (auto& x : cost_ms) x = rng.uniform(1.0, 6.0);
  const Coloring c = greedy_coloring(g, ColoringOrder::kLoadDescending, cost_ms);
  const DagMetrics m = critical_path(g, c, cost_ms);
  const double real = run_real_dag(g, c, cost_ms, 4) * 1e3;  // ms
  // Sleeps may overshoot but never undershoot the critical path.
  EXPECT_GE(real, m.critical_path * 0.95);
}

TEST(SchedIntegration, RealMakespanTracksSimulatedMakespan) {
  // The simulator predicts the same greedy list schedule the executor runs;
  // with sleep-tasks the measured makespan should be within scheduling
  // overhead of the simulated one (generous 2.5x bound for CI noise).
  const StencilGraph g(4, 2, 1);
  util::Xoshiro256 rng(7);
  std::vector<double> cost_ms(8);
  for (auto& x : cost_ms) x = rng.uniform(2.0, 10.0);
  const Coloring c = greedy_coloring(g, ColoringOrder::kLoadDescending, cost_ms);
  for (const int P : {1, 2}) {
    const double sim = simulate_dag_schedule(g, c, cost_ms, P).makespan;
    const double real = run_real_dag(g, c, cost_ms, P) * 1e3;
    EXPECT_GE(real, sim * 0.9) << "P=" << P;
    EXPECT_LE(real, sim * 2.5 + 20.0) << "P=" << P;
  }
}

TEST(SchedIntegration, AllColoringOrdersYieldValidExecutions) {
  // Whatever the coloring order, the induced DAG must execute completely
  // and without conflicts (validated by a per-vertex reentrancy guard on
  // neighbors).
  const StencilGraph g(3, 3, 3);
  util::Xoshiro256 rng(11);
  std::vector<double> loads(27);
  for (auto& x : loads) x = rng.uniform(0.0, 5.0);
  for (const ColoringOrder order :
       {ColoringOrder::kNatural, ColoringOrder::kLoadDescending,
        ColoringOrder::kSmallestLast}) {
    const Coloring c = greedy_coloring(g, order, loads);
    ASSERT_TRUE(is_valid_coloring(g, c)) << to_string(order);
    std::vector<std::atomic<int>> active(27);
    std::atomic<bool> conflict{false};
    std::atomic<int> executed{0};
    DagScheduler dag;
    for (std::int64_t v = 0; v < 27; ++v) {
      dag.add_task([&, v] {
        // While running, no stencil neighbor may be running.
        active[static_cast<std::size_t>(v)] = 1;
        g.for_neighbors(v, [&](std::int64_t u) {
          if (active[static_cast<std::size_t>(u)].load()) conflict = true;
        });
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        g.for_neighbors(v, [&](std::int64_t u) {
          if (active[static_cast<std::size_t>(u)].load()) conflict = true;
        });
        active[static_cast<std::size_t>(v)] = 0;
        ++executed;
      });
    }
    for (std::int64_t v = 0; v < 27; ++v) {
      g.for_neighbors(v, [&](std::int64_t u) {
        if (c.color[static_cast<std::size_t>(v)] <
            c.color[static_cast<std::size_t>(u)])
          dag.add_edge(static_cast<std::size_t>(v),
                       static_cast<std::size_t>(u));
      });
    }
    ThreadPool pool(4);
    dag.run(pool);
    EXPECT_EQ(executed.load(), 27) << to_string(order);
    EXPECT_FALSE(conflict.load()) << to_string(order)
                                  << ": adjacent tasks ran concurrently";
  }
}

TEST(SchedIntegration, ParityDagMatchesPhasedSemantics) {
  // Under the parity coloring, the DAG relaxation never reorders adjacent
  // subdomains: lower parity color always executes first.
  const StencilGraph g(4, 4, 1);
  const Coloring c = parity_coloring(g);
  std::vector<double> order_stamp(16, -1.0);
  std::atomic<int> counter{0};
  DagScheduler dag;
  for (std::int64_t v = 0; v < 16; ++v)
    dag.add_task([&, v] {
      order_stamp[static_cast<std::size_t>(v)] = counter.fetch_add(1);
    });
  for (std::int64_t v = 0; v < 16; ++v) {
    g.for_neighbors(v, [&](std::int64_t u) {
      if (c.color[static_cast<std::size_t>(v)] <
          c.color[static_cast<std::size_t>(u)])
        dag.add_edge(static_cast<std::size_t>(v), static_cast<std::size_t>(u));
    });
  }
  ThreadPool pool(3);
  dag.run(pool);
  for (std::int64_t v = 0; v < 16; ++v) {
    g.for_neighbors(v, [&](std::int64_t u) {
      if (c.color[static_cast<std::size_t>(v)] <
          c.color[static_cast<std::size_t>(u)]) {
        EXPECT_LT(order_stamp[static_cast<std::size_t>(v)],
                  order_stamp[static_cast<std::size_t>(u)]);
      }
    });
  }
}

}  // namespace
}  // namespace stkde::sched
