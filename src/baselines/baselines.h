// Reimplementations of every comparator evaluated in the paper (Table 1),
// following the algorithm descriptions in the paper's Section 2. Each
// returns a label array over the graph's vertices; labels are canonical
// (component-minimum) unless noted.
//
// The parallel codes take a thread count (0 = OpenMP default). On machines
// with few cores they still run their parallel structure — the comparison
// in the benchmarks is between algorithms, as in the paper.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.h"

namespace ecl::baselines {

/// A prepared, ready-to-time CC computation. The prepare step (building a
/// code's native graph representation — the paper's untimed "graph
/// conversion", §4) happens in the make_*_runner factory; invoking the
/// runner performs and times only the CC computation.
using CcRunner = std::function<std::vector<vertex_t>()>;

// --- parallel CPU comparators ---------------------------------------------

/// Ligra+ "Comp" [22]: frontier-based label propagation that keeps the
/// previous label of every vertex and only processes vertices whose label
/// changed in the prior iteration.
[[nodiscard]] std::vector<vertex_t> label_prop(const Graph& g, int threads = 0);

/// Ligra+ "BFSCC" [21]: iterate over the vertices and run a parallel
/// breadth-first search from every still-unvisited one.
[[nodiscard]] std::vector<vertex_t> bfs_cc(const Graph& g, int threads = 0);

/// Multistep [33]: one parallel BFS rooted at the maximum-degree vertex,
/// label propagation on the remaining subgraph, then a serial tail once few
/// vertices are left.
[[nodiscard]] std::vector<vertex_t> multistep(const Graph& g, int threads = 0);

/// ndHybrid [30] (Shun, Dhulipala & Blelloch): low-diameter decomposition by
/// concurrent BFS ball growing, contraction of each partition to a single
/// vertex, and recursion on the contracted graph.
[[nodiscard]] std::vector<vertex_t> ndhybrid(const Graph& g, int threads = 0);

/// CRONO [1]: Shiloach-Vishkin on an n x dmax adjacency matrix, prebuilt in
/// the (untimed) prepare step. Mirrors the original's memory behaviour: the
/// runner returns an empty vector when the matrix would exceed
/// `memory_limit` bytes (the paper reports "n/a" for those inputs).
[[nodiscard]] CcRunner make_crono_runner(const Graph& g, int threads = 0,
                                         std::size_t memory_limit = std::size_t{2} << 30);

/// True if CRONO's n x dmax matrix fits within `memory_limit`.
[[nodiscard]] bool crono_supports(const Graph& g,
                                  std::size_t memory_limit = std::size_t{2} << 30);

/// Galois asynchronous CC [19]: visit each edge exactly once (one direction
/// only), merge endpoints in a concurrent union-find that uses a restricted
/// (single) form of pointer jumping.
[[nodiscard]] std::vector<vertex_t> galois_async(const Graph& g, int threads = 0);

// --- serial library comparators --------------------------------------------

/// Boost incremental_components flavour [3]: rank + full-path-compression
/// union-find accessed through property-map indirection, over a
/// vector-of-vectors adjacency_list.
[[nodiscard]] CcRunner make_boost_runner(const Graph& g);

/// igraph flavour [17]: dqueue-based BFS over igraph's edge arrays with
/// sorted incidence indices (double indirection per neighbor).
[[nodiscard]] CcRunner make_igraph_runner(const Graph& g);

/// LEMON flavour [20]: DFS over ListGraph-style linked arc lists.
[[nodiscard]] CcRunner make_lemon_runner(const Graph& g);

/// Galois serial CC: the asynchronous algorithm run through the Galois
/// execution model (edge work items drained from a chunked worklist via an
/// indirect operator call), without atomics.
[[nodiscard]] std::vector<vertex_t> galois_serial(const Graph& g);

}  // namespace ecl::baselines
