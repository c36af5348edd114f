// GraphBuilder: edge list -> clean CSR graph.
//
// Every graph the library loads or generates is conditioned as the paper's §4
// says, and build_graph applies that conditioning and nothing else: "we
// modified the graphs to eliminate loops and multiple edges between the same
// two vertices. We added any missing back edges to make the graphs
// undirected." Three generators, gen_grid2d, gen_road_network and
// gen_web_graph, know every vertex's sorted, distinct neighbours and write
// the same conditioned CSR directly; tests/test_generators.cpp pins them bit
// for bit to build_graph run on their edges.
// The conditioning is fixed because ECL-CC depends on it: each vertex v
// processes only its neighbors u < v, so an undirected edge is handled once,
// from its larger endpoint's list, and is missed if only the smaller
// endpoint stores it. Init3 ("first neighbor with a smaller ID") reads list
// order, so every adjacency list is also sorted ascending, which makes runs
// deterministic.
//
// The CSR is built by counting sorts, not a comparison sort: one pass counts
// each vertex's arcs, then two stable scatters (by head, then by tail) leave
// every adjacency list sorted, and duplicates are dropped list by list. That
// costs O(n + m) time.
//
// Each pass runs on every CPU in the caller's affinity mask: the caller and
// pinned helpers claim its units (for_each_claimed, common/claim.h). An
// input of m edges on n vertices has C = m / max(n, 2^16) units, at least 1
// and at most one per allowed CPU, so 1 when only one CPU is allowed; then
// no thread starts. Each unit adds a row of n cursors that the scans walk,
// so more units than CPUs cost more than claiming evens out. The count and
// the first scatter take C edge chunks, each with its own row, so within a
// head a later chunk's arcs follow an earlier one's whichever CPU writes
// them; the second scatter and the deduplication take C ranges of heads
// with about equal arcs. The CSR is a function of the edge multiset, so it
// is bit-identical for every C and every mask.
//
// Memory: besides the CSR (8 B per vertex, 4 B per arc before
// deduplication) it allocates 4 B per arc of scratch and C rows of 8 B per
// vertex, which by the unit rule cost at most the 8 B per edge of the input
// list. All of it, the CSR too, is left uninitialised, so the workers that
// first write each part fault its pages in: the caller may share its CPU
// with other threads (a thread starts on the CPU of the one that spawned
// it), so it should do as little of the work as the pool lets it.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"

namespace ecl {

class GraphBuilder {
 public:
  /// `num_vertices` fixes n; edges may then reference vertices [0, n).
  explicit GraphBuilder(vertex_t num_vertices) : num_vertices_(num_vertices) {}

  /// Appends a directed edge. Endpoints must be < num_vertices.
  void add_edge(vertex_t u, vertex_t v);

  /// Bulk append.
  void add_edges(std::span<const Edge> edges);

  /// Number of raw (pre-conditioning) edges added so far.
  [[nodiscard]] std::size_t raw_edge_count() const { return edges_.size(); }

  /// Conditions the edge list and emits the CSR graph. The builder is left
  /// empty afterwards.
  [[nodiscard]] Graph build();

 private:
  vertex_t num_vertices_;
  std::vector<Edge> edges_;
};

/// Builds a conditioned graph straight from an edge list, without copying
/// it. Throws std::out_of_range if an endpoint is >= num_vertices.
[[nodiscard]] Graph build_graph(vertex_t num_vertices, std::span<const Edge> edges);

}  // namespace ecl
