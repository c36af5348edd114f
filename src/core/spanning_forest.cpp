#include "core/spanning_forest.h"

#include <algorithm>

#include "dsu/disjoint_set.h"

namespace ecl {

SpanningForest minimum_spanning_forest(const Graph& g, const WeightFn& weight) {
  std::vector<ForestEdge> edges;
  edges.reserve(g.num_edges() / 2);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (const vertex_t u : g.neighbors(v)) {
      if (u < v) edges.push_back({v, u, weight(v, u)});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const ForestEdge& a, const ForestEdge& b) { return a.weight < b.weight; });

  ConcurrentDisjointSet dsu(g.num_vertices());
  SpanningForest forest;
  forest.edges.reserve(g.num_vertices());
  for (const auto& e : edges) {
    if (dsu.find(e.u) != dsu.find(e.v)) {
      dsu.unite(e.u, e.v);
      forest.edges.push_back(e);
      forest.total_weight += e.weight;
    }
  }
  dsu.flatten();
  forest.num_trees = dsu.count();
  return forest;
}

}  // namespace ecl
