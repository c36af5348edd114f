// Shared fixtures/helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace ecl {

/// Polls `pred` for up to ~5 s, so a test waiting on another thread never
/// hangs the suite.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// Fixture graphs with exactly known component structure. They live with the
// tests because only tests build them; the generators in graph/generators.h
// are the ones the benches and tools use.

/// Star graph: one hub connected to n-1 leaves. Stresses the high-degree
/// (thread-block granularity) compute kernel.
inline Graph gen_star(vertex_t n) {
  if (n == 0) return Graph();
  GraphBuilder b(n);
  for (vertex_t v = 1; v < n; ++v) b.add_edge(0, v);
  return b.build();
}

/// Path graph 0-1-2-...-(n-1): the pointer-jumping worst case.
inline Graph gen_path(vertex_t n) {
  GraphBuilder b(n);
  for (vertex_t v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

/// Complete graph on n vertices (n small!).
inline Graph gen_complete(vertex_t n) {
  GraphBuilder b(n);
  for (vertex_t u = 0; u < n; ++u) {
    for (vertex_t v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

/// Disjoint union of `count` cliques of size `clique_size`.
inline Graph gen_clique_forest(vertex_t count, vertex_t clique_size) {
  const auto n = static_cast<std::uint64_t>(count) * clique_size;
  if (n > static_cast<std::uint64_t>(kInvalidVertex)) {
    throw std::invalid_argument("gen_clique_forest: too many vertices");
  }
  GraphBuilder b(static_cast<vertex_t>(n));
  for (vertex_t k = 0; k < count; ++k) {
    const vertex_t base = k * clique_size;
    for (vertex_t u = 0; u < clique_size; ++u) {
      for (vertex_t v = u + 1; v < clique_size; ++v) {
        b.add_edge(base + u, base + v);
      }
    }
  }
  return b.build();
}

/// Graph with n vertices and no edges: n singleton components.
inline Graph gen_isolated(vertex_t n) {
  GraphBuilder b(n);
  return b.build();
}

/// Watts-Strogatz small world: ring lattice of degree 2k with probability-p
/// rewiring.
inline Graph gen_small_world(vertex_t n, vertex_t k, double rewire_probability,
                             std::uint64_t seed) {
  if (n == 0) return Graph();
  if (k >= n / 2 && n > 1) throw std::invalid_argument("gen_small_world: k too large");
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * k);
  for (vertex_t v = 0; v < n; ++v) {
    for (vertex_t j = 1; j <= k; ++j) {
      vertex_t w = static_cast<vertex_t>((v + j) % n);
      if (rng.uniform() < rewire_probability) {
        w = static_cast<vertex_t>(rng.bounded(n));
      }
      edges.emplace_back(v, w);
    }
  }
  return build_graph(n, edges);
}

}  // namespace ecl

namespace ecl::testing {

/// A named graph for value-parameterized correctness sweeps.
struct NamedGraph {
  std::string name;
  Graph graph;
};

/// Small graphs with diverse structure: every CC implementation must label
/// all of them correctly.
inline std::vector<NamedGraph> correctness_graphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"empty", Graph()});
  graphs.push_back({"single_vertex", gen_isolated(1)});
  graphs.push_back({"isolated_100", gen_isolated(100)});
  graphs.push_back({"path_1", gen_path(1)});
  graphs.push_back({"path_2", gen_path(2)});
  graphs.push_back({"path_1000", gen_path(1000)});
  graphs.push_back({"star_500", gen_star(500)});
  graphs.push_back({"complete_40", gen_complete(40)});
  graphs.push_back({"cliques_30x7", gen_clique_forest(30, 7)});
  graphs.push_back({"grid_40x25", gen_grid2d(40, 25)});
  graphs.push_back({"grid_1xN", gen_grid2d(1, 777)});
  graphs.push_back({"delaunay_30x30", gen_delaunay_like(30, 30)});
  graphs.push_back({"random_sparse", gen_uniform_random(2000, 1500, 1)});
  graphs.push_back({"random_dense", gen_uniform_random(500, 4000, 2)});
  graphs.push_back({"rmat_small", gen_rmat(10, 8, RmatParams{}, 3)});
  graphs.push_back({"kron_small", gen_kronecker(10, 16, 4)});
  graphs.push_back({"road_small", gen_road_network(3000, 5)});
  graphs.push_back({"pref_attach", gen_preferential_attachment(2000, 4, 6)});
  graphs.push_back({"citation", gen_citation(2000, 5, 0.6, 7)});
  graphs.push_back({"web_small", gen_web_graph(3000, 8)});
  graphs.push_back({"small_world", gen_small_world(1500, 3, 0.1, 9)});
  // Two components of very different shape glued into one graph.
  {
    GraphBuilder b(1200);
    for (vertex_t v = 0; v + 1 < 600; ++v) b.add_edge(v, v + 1);  // long path
    for (vertex_t v = 601; v < 1200; ++v) b.add_edge(600, v);     // star
    graphs.push_back({"path_plus_star", b.build()});
  }
  return graphs;
}

/// `g` with every adjacency list reversed (descending), for tests of code
/// that reads list order; build_graph always sorts lists ascending.
inline Graph with_descending_lists(const Graph& g) {
  UninitVector<vertex_t> adjacency(g.adjacency().begin(), g.adjacency().end());
  const auto offsets = g.offsets();
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    std::reverse(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                 adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
  }
  return Graph(UninitVector<edge_t>(offsets.begin(), offsets.end()), std::move(adjacency));
}

/// Checks the paper's §4 conditioning, which build_graph applies and the
/// generators that write their CSR directly must match: every adjacency list
/// strictly ascending (so no parallel edges), no self-loop, and the reverse
/// of every arc. Reports the first violation only.
inline void expect_conditioned(const Graph& g) {
  const vertex_t n = g.num_vertices();
  for (vertex_t v = 0; v < n; ++v) {
    const auto list = g.neighbors(v);
    for (std::size_t i = 0; i < list.size(); ++i) {
      const vertex_t u = list[i];
      if (i > 0 && list[i - 1] >= u) {
        ADD_FAILURE() << "list of " << v << " not strictly ascending at " << u;
        return;
      }
      if (u == v) {
        ADD_FAILURE() << "self-loop at " << v;
        return;
      }
      if (u >= n) {
        ADD_FAILURE() << "arc " << v << "->" << u << " leaves the graph";
        return;
      }
      const auto back = g.neighbors(u);
      if (!std::binary_search(back.begin(), back.end(), v)) {
        ADD_FAILURE() << "arc " << v << "->" << u << " has no reverse";
        return;
      }
    }
  }
}

/// Non-overlapping occurrences of `needle` in `text`.
inline std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// A few larger graphs for stress tests.
inline std::vector<NamedGraph> stress_graphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"grid_300x300", gen_grid2d(300, 300)});
  graphs.push_back({"kron_64k", gen_kronecker(16, 16, 42)});
  graphs.push_back({"road_100k", gen_road_network(100000, 43)});
  graphs.push_back({"random_100k", gen_uniform_random(100000, 400000, 44)});
  return graphs;
}

}  // namespace ecl::testing
