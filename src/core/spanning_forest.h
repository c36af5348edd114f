// Minimum spanning forest via Kruskal on the ECL union-find substrate — the
// extension the paper's conclusion proposes: "[intermediate pointer
// jumping] should be able to accelerate other GPU algorithms that are based
// on union-find, such as Kruskal's algorithm for finding the minimum
// spanning tree of a graph."
#pragma once

#include <functional>
#include <vector>

#include "graph/graph.h"

namespace ecl {

/// One selected forest edge.
struct ForestEdge {
  vertex_t u = 0;
  vertex_t v = 0;
  double weight = 0.0;
};

/// Result of a spanning-forest computation.
struct SpanningForest {
  /// Selected edges; exactly n - num_components of them.
  std::vector<ForestEdge> edges;
  /// Sum of the selected edges' weights.
  double total_weight = 0.0;
  /// Number of trees in the forest (== number of connected components).
  vertex_t num_trees = 0;
};

/// Edge weights are supplied by a callback over (u, v) so callers can attach
/// any metric (distance, cost, capacity) without materializing a weight
/// array. Must be symmetric: weight(u, v) == weight(v, u).
using WeightFn = std::function<double(vertex_t, vertex_t)>;

/// Kruskal's algorithm: sorts the undirected edges by weight and grows the
/// forest with the ECL concurrent union-find (path-halving finds, CAS
/// hooks). O(m log m) for the sort; near-linear for the union phase.
[[nodiscard]] SpanningForest minimum_spanning_forest(const Graph& g, const WeightFn& weight);

}  // namespace ecl
