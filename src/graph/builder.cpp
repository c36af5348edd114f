#include "graph/builder.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace ecl {

void GraphBuilder::add_edge(vertex_t u, vertex_t v) {
  if (u >= num_vertices_ || v >= num_vertices_) {
    throw std::out_of_range("GraphBuilder::add_edge: endpoint out of range");
  }
  edges_.emplace_back(u, v);
}

void GraphBuilder::add_edges(std::span<const Edge> edges) {
  edges_.reserve(edges_.size() + edges.size());
  for (const auto& [u, v] : edges) add_edge(u, v);
}

Graph GraphBuilder::build() {
  const std::vector<Edge> edges = std::move(edges_);
  edges_.clear();
  return build_graph(num_vertices_, edges);
}

Graph build_graph(vertex_t num_vertices, std::span<const Edge> edges) {
  const std::size_t n = num_vertices;

  // Count pass: offsets[u + 1] counts the arcs with tail u. Both arcs of
  // every kept edge are counted, so every in-degree equals the out-degree.
  std::vector<edge_t> offsets(n + 1, 0);
  for (const Edge& e : edges) {
    if (e.first >= n || e.second >= n) {
      throw std::out_of_range("build_graph: endpoint out of range");
    }
    if (e.first == e.second) continue;
    ++offsets[e.first + 1];
    ++offsets[e.second + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<edge_t> by_head = offsets;

  // Two stable scatters, an LSD radix sort of the arcs on (tail, head):
  // first each tail into its head's slots, then, walking heads in ascending
  // order, each head into its tail's slots, so every list comes out sorted
  // with its duplicates adjacent. Each cursor array ends at the end of each
  // vertex's slots: by_head[h] bounds h's tails, offsets[u] ends u's list.
  std::vector<vertex_t> tails(by_head[n]);
  for (const Edge& e : edges) {
    if (e.first == e.second) continue;
    tails[by_head[e.second]++] = e.first;
    tails[by_head[e.first]++] = e.second;
  }
  std::vector<vertex_t> adjacency(offsets[n]);
  for (edge_t i = 0, h = 0; h < n; ++h) {
    for (; i < by_head[h]; ++i) adjacency[offsets[tails[i]]++] = static_cast<vertex_t>(h);
  }
  tails = {};

  // Per list: drop duplicates and slide the list down over the slots freed
  // by earlier lists' duplicates; offsets[v] becomes v's start.
  vertex_t* const adj = adjacency.data();
  edge_t begin = 0;
  edge_t write = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const edge_t end = offsets[v];
    vertex_t* const list_end = std::unique(adj + begin, adj + end);
    if (write != begin) std::move(adj + begin, list_end, adj + write);
    offsets[v] = write;
    write += static_cast<edge_t>(list_end - (adj + begin));
    begin = end;
  }
  offsets[n] = write;
  adjacency.resize(write);
  return Graph(std::move(offsets), std::move(adjacency));
}

}  // namespace ecl
