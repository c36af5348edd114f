// google-benchmark microbenchmarks of the union-find primitives and the
// phase kernels: the per-operation costs behind the paper-level results.
#include <benchmark/benchmark.h>

#include <thread>

#include "common/rng.h"
#include "core/ecl_cc.h"
#include "dsu/disjoint_set.h"
#include "dsu/rank_dsu.h"
#include "dsu/find.h"
#include "dsu/hook.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/rmat_lanes.h"

namespace {

using namespace ecl;

/// Worst-case chain: parent[i] = i - 1, and parent[0] = 0.
std::vector<vertex_t> chain(vertex_t n) {
  std::vector<vertex_t> parent(n);
  for (vertex_t v = 1; v < n; ++v) parent[v] = v - 1;
  return parent;
}

void BM_FindIntermediate(benchmark::State& state) {
  const auto n = static_cast<vertex_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto parent = chain(n);
    state.ResumeTiming();
    SerialParentOps ops(parent.data());
    for (vertex_t v = n; v > 0; --v) {
      benchmark::DoNotOptimize(find_intermediate(v - 1, ops));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FindIntermediate)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_FindSingle(benchmark::State& state) {
  const auto n = static_cast<vertex_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto parent = chain(n);
    state.ResumeTiming();
    SerialParentOps ops(parent.data());
    for (vertex_t v = n; v > 0; --v) {
      benchmark::DoNotOptimize(find_single(v - 1, ops));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FindSingle)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_FindMultiple(benchmark::State& state) {
  const auto n = static_cast<vertex_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto parent = chain(n);
    state.ResumeTiming();
    SerialParentOps ops(parent.data());
    for (vertex_t v = n; v > 0; --v) {
      benchmark::DoNotOptimize(find_multiple(v - 1, ops));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FindMultiple)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_DisjointSetUnite(benchmark::State& state) {
  const auto n = static_cast<vertex_t>(state.range(0));
  for (auto _ : state) {
    DisjointSet ds(n);
    for (vertex_t v = 0; v + 1 < n; ++v) ds.unite(v, v + 1);
    benchmark::DoNotOptimize(ds.count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DisjointSetUnite)->Arg(1 << 12)->Arg(1 << 16);

void BM_ConcurrentDsuUnite(benchmark::State& state) {
  const auto n = static_cast<vertex_t>(state.range(0));
  for (auto _ : state) {
    ConcurrentDisjointSet ds(n);
    for (vertex_t v = 0; v + 1 < n; ++v) ds.unite(v, v + 1);
    ds.flatten();
    benchmark::DoNotOptimize(ds.count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ConcurrentDsuUnite)->Arg(1 << 12)->Arg(1 << 16);

void BM_RandomPriorityDsuUnite(benchmark::State& state) {
  // Linking-strategy comparison vs BM_ConcurrentDsuUnite (ECL min-linking)
  // on the sequential-chain adversarial case.
  const auto n = static_cast<vertex_t>(state.range(0));
  for (auto _ : state) {
    RandomPriorityDisjointSet ds(n);
    for (vertex_t v = 0; v + 1 < n; ++v) ds.unite(v, v + 1);
    benchmark::DoNotOptimize(ds.count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RandomPriorityDsuUnite)->Arg(1 << 12)->Arg(1 << 16);

void BM_EclSerialOnGrid(benchmark::State& state) {
  const auto side = static_cast<vertex_t>(state.range(0));
  const Graph g = gen_grid2d(side, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecl_cc_serial(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_EclSerialOnGrid)->Arg(64)->Arg(256);

void BM_EclSerialOnKron(benchmark::State& state) {
  const Graph g = gen_kronecker(static_cast<int>(state.range(0)), 16, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecl_cc_serial(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_EclSerialOnKron)->Arg(12)->Arg(15);

// gen_kronecker draws and builds on every CPU in the caller's mask, so time
// the wall clock, not the calling thread's CPU. Scale 17 is core_solve's
// kron input.
void BM_GraphGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen_kronecker(static_cast<int>(state.range(0)), 16, 3));
  }
}
BENCHMARK(BM_GraphGeneration)->Arg(12)->Arg(15)->Arg(17)->UseRealTime();

// The generators core_solve runs beside kron, each at its core_solve size:
// road on 2^20 vertices, a 1024 x 1024 grid, web on 2^19 vertices. Each
// writes its CSR on every CPU in the caller's mask, so wall clock.
void BM_GenRoad(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen_road_network(static_cast<vertex_t>(state.range(0)), 3));
  }
}
BENCHMARK(BM_GenRoad)->Arg(1 << 20)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_GenGrid(benchmark::State& state) {
  const auto side = static_cast<vertex_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen_grid2d(side, side));
  }
}
BENCHMARK(BM_GenGrid)->Arg(1024)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_GenWeb(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen_web_graph(static_cast<vertex_t>(state.range(0)), 3));
  }
}
BENCHMARK(BM_GenWeb)->Arg(1 << 19)->Unit(benchmark::kMillisecond)->UseRealTime();

// core_solve's set-up: its four generators at full size, each on its own
// std::thread spawned from this one, as benchmark/driver/core_bench.cpp's
// generate() runs them. An unbound thread starts on the CPU of the thread
// that spawned it and can stay there, so the four may share one CPU while
// the others idle; only the generators' claimed blocks reach the rest.
// Wall clock, with the process's CPU time beside it: CPU / Time is the
// number of CPUs kept busy. Freeing the previous graphs is not timed, as
// the driver frees them before its clock starts.
void BM_CoreSolveGeneration(benchmark::State& state) {
  Graph graphs[4];
  for (auto _ : state) {
    state.PauseTiming();
    for (Graph& g : graphs) g = Graph();
    state.ResumeTiming();
    std::thread threads[] = {
        std::thread([&] { graphs[0] = gen_road_network(vertex_t{1} << 20, 3); }),
        std::thread([&] { graphs[1] = gen_grid2d(1024, 1024); }),
        std::thread([&] { graphs[2] = gen_kronecker(17, 16, 3); }),
        std::thread([&] { graphs[3] = gen_web_graph(vertex_t{1} << 19, 3); })};
    for (std::thread& t : threads) t.join();
    benchmark::DoNotOptimize(graphs);
  }
}
BENCHMARK(BM_CoreSolveGeneration)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// build_graph alone on core_solve's kron edge list (2^21 edges on 2^17
// vertices, drawn once): on every CPU in the caller's mask, so wall clock.
void BM_BuildGraphKron(benchmark::State& state) {
  constexpr int kScale = 17;
  std::vector<Edge> edges(edge_t{16} << kScale);
  rmat::draw_edges_for_cpu(Xoshiro256(3), kScale,
                           rmat::Thresholds::of(RmatParams{0.57, 0.19, 0.19, 0.05}),
                           edges.data(), edges.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_graph(vertex_t{1} << kScale, edges));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_BuildGraphKron)->Unit(benchmark::kMillisecond)->UseRealTime();

// gen_rmat's descent alone, on one thread with no graph build: core_solve's
// kron input, 2^21 edges of 34 draws, at the lane count this CPU runs.
void BM_RmatDescent(benchmark::State& state) {
  constexpr int kScale = 17;
  constexpr edge_t kEdges = edge_t{16} << kScale;
  const auto thresholds = rmat::Thresholds::of(RmatParams{0.57, 0.19, 0.19, 0.05});
  std::vector<Edge> edges(kEdges);
  for (auto _ : state) {
    rmat::draw_edges_for_cpu(Xoshiro256(3), kScale, thresholds, edges.data(), kEdges);
    benchmark::DoNotOptimize(edges.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kEdges));
}
BENCHMARK(BM_RmatDescent)->Unit(benchmark::kMillisecond);

// The jump-ahead that splits gen_rmat's stream. core_solve's kron input
// (2^21 edges of 34 draws) is 32 chunks, each jumped by up to ~2^26 draws,
// then on AVX2 4 lanes per chunk, 3 more jumps of ~2^19.1 draws each: 128
// jumps in all, spread over the CPUs that claim the chunks.
void BM_XoshiroDiscard(benchmark::State& state) {
  Xoshiro256 rng(3);
  for (auto _ : state) {
    rng.discard(static_cast<std::uint64_t>(state.range(0)));
    benchmark::DoNotOptimize(rng);
  }
}
BENCHMARK(BM_XoshiroDiscard)->Arg(1 << 10)->Arg(1 << 25);

}  // namespace

BENCHMARK_MAIN();
