// Grid-layout ablation (DESIGN.md §6.1): the library stores T innermost so
// the PB-SYM inner loop walks contiguous memory. This bench compares the
// same accumulation with T-innermost vs T-outermost traversal, plus the
// init/reduce bandwidth the phase model depends on.

#include <benchmark/benchmark.h>

#include "grid/dense_grid.hpp"
#include "grid/reduction.hpp"
#include "sched/thread_pool.hpp"

using namespace stkde;

namespace {

constexpr std::int32_t kN = 96;

void BM_AccumulateTInnermost(benchmark::State& state) {
  DenseGrid3<float> g(GridDims{kN, kN, kN});
  g.fill(0.0f);
  std::vector<double> kt(kN, 0.5);
  for (auto _ : state) {
    for (std::int32_t X = 0; X < kN; ++X)
      for (std::int32_t Y = 0; Y < kN; ++Y) {
        float* row = g.row(X, Y);
        for (std::int32_t T = 0; T < kN; ++T)
          row[T] += static_cast<float>(0.25 * kt[T]);
      }
    benchmark::DoNotOptimize(g.data());
  }
  state.SetBytesProcessed(state.iterations() * g.bytes());
}

void BM_AccumulateTOutermost(benchmark::State& state) {
  // Identical arithmetic, strided writes: what the layout would cost if T
  // were the outer dimension (stride Gy*Gt between consecutive T).
  DenseGrid3<float> g(GridDims{kN, kN, kN});
  g.fill(0.0f);
  std::vector<double> kt(kN, 0.5);
  for (auto _ : state) {
    for (std::int32_t T = 0; T < kN; ++T)
      for (std::int32_t X = 0; X < kN; ++X)
        for (std::int32_t Y = 0; Y < kN; ++Y)
          g.at(X, Y, T) += static_cast<float>(0.25 * kt[T]);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetBytesProcessed(state.iterations() * g.bytes());
}

void BM_GridFill(benchmark::State& state) {
  DenseGrid3<float> g(GridDims{kN, kN, kN});
  for (auto _ : state) {
    g.fill(0.0f);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetBytesProcessed(state.iterations() * g.bytes());
}

void BM_GridFillParallel(benchmark::State& state) {
  DenseGrid3<float> g(GridDims{kN, kN, kN});
  sched::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    g.fill_parallel(0.0f, pool);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetBytesProcessed(state.iterations() * g.bytes());
}

void BM_ReduceReplicas(benchmark::State& state) {
  const auto replicas = static_cast<std::size_t>(state.range(0));
  DenseGrid3<float> dst(GridDims{kN, kN, kN});
  dst.fill(0.0f);
  std::vector<DenseGrid3<float>> reps;
  for (std::size_t i = 0; i < replicas; ++i) {
    reps.emplace_back(GridDims{kN, kN, kN});
    reps.back().fill(1.0f);
  }
  sched::ThreadPool pool(1);
  for (auto _ : state) {
    reduce_replicas(dst, reps, pool);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * dst.bytes() * replicas);
}

}  // namespace

BENCHMARK(BM_AccumulateTInnermost);
BENCHMARK(BM_AccumulateTOutermost);
BENCHMARK(BM_GridFill);
BENCHMARK(BM_GridFillParallel)->Arg(1)->Arg(4);
BENCHMARK(BM_ReduceReplicas)->Arg(2)->Arg(8);
