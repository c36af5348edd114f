// Tests for the Boruvka spanning forest on the virtual GPU (the paper
// conclusion's proposed union-find extension), validated against the serial
// Kruskal implementation.
#include <gtest/gtest.h>

#include "core/spanning_forest.h"
#include "core/verify.h"
#include "dsu/disjoint_set.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "gpusim/mst_gpu.h"
#include "test_util.h"

namespace ecl::gpusim {
namespace {

/// Deterministic pseudo-random symmetric edge weight.
double hash_weight(vertex_t u, vertex_t v) {
  const auto lo = std::min(u, v);
  const auto hi = std::max(u, v);
  return static_cast<double>((lo * 2654435761u + hi * 40503u) % 100003) + 1.0;
}

TEST(GpuMst, PathGraphSelectsAllEdges) {
  const Graph g = gen_path(500);
  const auto result = boruvka_mst_gpu(g, titanx_like(), hash_weight);
  EXPECT_EQ(result.edge_ids.size(), 499u);
}

TEST(GpuMst, ForestSizeMatchesComponents) {
  for (const auto& g : {gen_clique_forest(20, 6), gen_uniform_random(3000, 8000, 9),
                        gen_web_graph(4000, 2), gen_isolated(64)}) {
    const auto result = boruvka_mst_gpu(g, titanx_like(), hash_weight);
    const vertex_t components = count_components(g);
    EXPECT_EQ(result.edge_ids.size(), g.num_vertices() - components);
  }
}

TEST(GpuMst, SelectedEdgesFormAcyclicSpanningForest) {
  const Graph g = gen_kronecker(11, 10, 7);
  const auto result = boruvka_mst_gpu(g, titanx_like(), hash_weight);

  // Rebuild the undirected (u < v) edge list to resolve edge ids.
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (const vertex_t u : g.neighbors(v)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  DisjointSet check(g.num_vertices());
  for (const std::uint64_t e : result.edge_ids) {
    ASSERT_LT(e, edges.size());
    EXPECT_TRUE(check.unite(edges[e].first, edges[e].second)) << "cycle at edge " << e;
  }
  EXPECT_EQ(check.count(), count_components(g));
}

TEST(GpuMst, TotalWeightMatchesSerialKruskal) {
  for (const auto& g : {gen_grid2d(40, 40), gen_uniform_random(2000, 6000, 13),
                        gen_preferential_attachment(1500, 4, 5)}) {
    const auto gpu = boruvka_mst_gpu(g, titanx_like(), hash_weight);
    const auto cpu = minimum_spanning_forest(g, hash_weight);
    EXPECT_NEAR(gpu.total_weight, cpu.total_weight, 1e-6);
    EXPECT_EQ(gpu.edge_ids.size(), cpu.edges.size());
  }
}

TEST(GpuMst, LabelsMatchConnectedComponents) {
  const Graph g = gen_citation(3000, 4, 0.5, 11);
  const auto result = boruvka_mst_gpu(g, titanx_like(), hash_weight);
  EXPECT_TRUE(same_partition(result.labels, reference_components(g)));
}

TEST(GpuMst, UniformWeightsStillYieldForest) {
  // All-equal weights stress the (weight, edge-id) tie-break.
  const Graph g = gen_complete(60);
  const auto result = boruvka_mst_gpu(g, titanx_like(),
                                      [](vertex_t, vertex_t) { return 1.0; });
  EXPECT_EQ(result.edge_ids.size(), 59u);
  EXPECT_DOUBLE_EQ(result.total_weight, 59.0);
}

TEST(GpuMst, ReportsKernelStats) {
  const Graph g = gen_grid2d(30, 30);
  const auto result = boruvka_mst_gpu(g, titanx_like(), hash_weight);
  EXPECT_GT(result.time_ms, 0.0);
  EXPECT_FALSE(result.kernels.empty());
}

TEST(GpuMst, EmptyGraph) {
  const auto result = boruvka_mst_gpu(Graph(), titanx_like(), hash_weight);
  EXPECT_TRUE(result.edge_ids.empty());
  EXPECT_DOUBLE_EQ(result.total_weight, 0.0);
}

}  // namespace
}  // namespace ecl::gpusim
