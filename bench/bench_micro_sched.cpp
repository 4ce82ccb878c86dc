// Micro-benchmarks of the scheduling substrate: coloring, critical path,
// list-schedule simulation, and DAG execution overhead — these bound how
// fine a decomposition PB-SYM-PD-SCHED can afford (64^3 = 262k tasks).

#include <benchmark/benchmark.h>

#include <atomic>

#include "sched/coloring.hpp"
#include "sched/critical_path.hpp"
#include "sched/dag_scheduler.hpp"
#include "sched/simulator.hpp"
#include "sched/thread_pool.hpp"
#include "util/rng.hpp"

using namespace stkde;

namespace {

std::vector<double> random_loads(std::size_t n) {
  util::Xoshiro256 rng(7);
  std::vector<double> l(n);
  for (auto& x : l) x = rng.uniform(0.0, 10.0);
  return l;
}

void BM_ParityColoring(benchmark::State& state) {
  const auto d = static_cast<std::int32_t>(state.range(0));
  const sched::StencilGraph g(d, d, d);
  for (auto _ : state) {
    auto c = sched::parity_coloring(g);
    benchmark::DoNotOptimize(c.num_colors);
  }
  state.SetItemsProcessed(state.iterations() * g.vertex_count());
}

void BM_GreedyColoringLoadDesc(benchmark::State& state) {
  const auto d = static_cast<std::int32_t>(state.range(0));
  const sched::StencilGraph g(d, d, d);
  const auto loads = random_loads(static_cast<std::size_t>(g.vertex_count()));
  for (auto _ : state) {
    auto c = sched::greedy_coloring(g, sched::ColoringOrder::kLoadDescending,
                                    loads);
    benchmark::DoNotOptimize(c.num_colors);
  }
  state.SetItemsProcessed(state.iterations() * g.vertex_count());
}

void BM_CriticalPath(benchmark::State& state) {
  const auto d = static_cast<std::int32_t>(state.range(0));
  const sched::StencilGraph g(d, d, d);
  const auto loads = random_loads(static_cast<std::size_t>(g.vertex_count()));
  const auto c =
      sched::greedy_coloring(g, sched::ColoringOrder::kLoadDescending, loads);
  for (auto _ : state) {
    auto m = sched::critical_path(g, c, loads);
    benchmark::DoNotOptimize(m.critical_path);
  }
  state.SetItemsProcessed(state.iterations() * g.vertex_count());
}

void BM_SimulateDagSchedule(benchmark::State& state) {
  const auto d = static_cast<std::int32_t>(state.range(0));
  const sched::StencilGraph g(d, d, d);
  const auto loads = random_loads(static_cast<std::size_t>(g.vertex_count()));
  const auto c =
      sched::greedy_coloring(g, sched::ColoringOrder::kLoadDescending, loads);
  for (auto _ : state) {
    auto r = sched::simulate_dag_schedule(g, c, loads, 16);
    benchmark::DoNotOptimize(r.makespan);
  }
  state.SetItemsProcessed(state.iterations() * g.vertex_count());
}

void BM_DagSchedulerExecution(benchmark::State& state) {
  // Per-task overhead of the real executor on an embarrassingly-parallel DAG.
  const auto n = static_cast<std::size_t>(state.range(0));
  sched::ThreadPool pool(4);
  for (auto _ : state) {
    sched::DagScheduler dag;
    std::atomic<std::int64_t> sink{0};
    for (std::size_t i = 0; i < n; ++i)
      dag.add_task([&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
    dag.run(pool);
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

}  // namespace

BENCHMARK(BM_ParityColoring)->Arg(16)->Arg(40);
BENCHMARK(BM_GreedyColoringLoadDesc)->Arg(16)->Arg(40);
BENCHMARK(BM_CriticalPath)->Arg(16)->Arg(40);
BENCHMARK(BM_SimulateDagSchedule)->Arg(16)->Arg(32);
BENCHMARK(BM_DagSchedulerExecution)->Arg(1000);
