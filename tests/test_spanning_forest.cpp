// Tests for the spanning-forest extension (the union-find application the
// paper's conclusion proposes). With unit weights any spanning forest is
// minimum, so the SpanningForest cases check the forest's structure.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/spanning_forest.h"
#include "dsu/disjoint_set.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "test_util.h"

namespace ecl {
namespace {

double unit_weight(vertex_t, vertex_t) { return 1.0; }

TEST(SpanningForest, TreeEdgeCountMatchesComponents) {
  for (const auto& g : {gen_grid2d(30, 30), gen_clique_forest(10, 6),
                        gen_uniform_random(2000, 5000, 3), gen_isolated(50)}) {
    const auto forest = minimum_spanning_forest(g, unit_weight);
    const vertex_t components = count_components(g);
    EXPECT_EQ(forest.num_trees, components);
    EXPECT_EQ(forest.edges.size(), g.num_vertices() - components);
  }
}

TEST(SpanningForest, EdgesFormAcyclicSpanningStructure) {
  const Graph g = gen_uniform_random(1000, 3000, 9);
  const auto forest = minimum_spanning_forest(g, unit_weight);
  DisjointSet check(g.num_vertices());
  for (const auto& e : forest.edges) {
    EXPECT_TRUE(check.unite(e.u, e.v)) << "cycle edge " << e.u << "-" << e.v;
  }
  EXPECT_EQ(check.count(), count_components(g));
}

TEST(Mst, PathGraphTotalWeight) {
  // On a path, the MST is the path itself.
  const Graph g = gen_path(100);
  const auto forest = minimum_spanning_forest(g, unit_weight);
  EXPECT_EQ(forest.edges.size(), 99u);
  EXPECT_DOUBLE_EQ(forest.total_weight, 99.0);
}

TEST(Mst, PicksCheapEdgesFirst) {
  // Complete graph on 4 vertices; weight(u,v) = u + v. The MST must be the
  // star around vertex 0: weights 1, 2, 3.
  const Graph g = gen_complete(4);
  const auto forest = minimum_spanning_forest(
      g, [](vertex_t u, vertex_t v) { return static_cast<double>(u + v); });
  EXPECT_EQ(forest.edges.size(), 3u);
  EXPECT_DOUBLE_EQ(forest.total_weight, 6.0);
  for (const auto& e : forest.edges) {
    EXPECT_EQ(std::min(e.u, e.v), 0u);  // all edges touch vertex 0
  }
}

TEST(Mst, MatchesPrimOnRandomWeightedGraph) {
  const Graph g = gen_uniform_random(200, 800, 17);
  auto weight = [](vertex_t u, vertex_t v) {
    // Deterministic pseudo-random symmetric weight.
    const auto lo = std::min(u, v);
    const auto hi = std::max(u, v);
    return static_cast<double>((lo * 2654435761u + hi * 40503u) % 10007);
  };
  const auto kruskal_forest = minimum_spanning_forest(g, weight);

  // Reference: Prim's algorithm per component (O(n^2) is fine at this size).
  const vertex_t n = g.num_vertices();
  std::vector<bool> in_tree(n, false);
  std::vector<double> best(n, 1e18);
  double prim_total = 0.0;
  const auto comps = reference_components(g);
  std::set<vertex_t> roots(comps.begin(), comps.end());
  for (const vertex_t root : roots) {
    best[root] = 0.0;
    while (true) {
      vertex_t next = kInvalidVertex;
      for (vertex_t v = 0; v < n; ++v) {
        if (!in_tree[v] && comps[v] == root && best[v] < 1e18 &&
            (next == kInvalidVertex || best[v] < best[next])) {
          next = v;
        }
      }
      if (next == kInvalidVertex) break;
      in_tree[next] = true;
      prim_total += best[next];
      for (const vertex_t u : g.neighbors(next)) {
        if (!in_tree[u]) best[u] = std::min(best[u], weight(next, u));
      }
    }
  }
  EXPECT_NEAR(kruskal_forest.total_weight, prim_total, 1e-6);
}

TEST(SpanningForest, EmptyGraph) {
  const auto forest = minimum_spanning_forest(Graph(), unit_weight);
  EXPECT_TRUE(forest.edges.empty());
  EXPECT_EQ(forest.num_trees, 0u);
}

}  // namespace
}  // namespace ecl
