// Incremental (dynamic, insert-only) connectivity on the ECL union-find
// substrate: edges stream in, same-component queries are answered at any
// point, and the current labeling can be materialized without rebuilding.
//
// This packages the paper's asynchronous union-find for the streaming use
// cases its applications imply (a crawl discovering web links, interactions
// arriving from a screening pipeline) — each insertion is one lock-free
// hook, so the structure is safe to update from multiple threads
// concurrently (§3's benign-race argument carries over verbatim).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dsu/disjoint_set.h"

namespace ecl {

class IncrementalCC {
 public:
  /// A universe of n vertices, initially all singletons.
  explicit IncrementalCC(vertex_t n) : dsu_(n) {}

  /// Inserts the undirected edge (u, v). Thread-safe.
  void add_edge(vertex_t u, vertex_t v) { dsu_.unite(u, v); }

  /// Bulk insert of `count` undirected edges, in order, on the calling
  /// thread (each hook is the same lock-free CAS as add_edge). Thread-safe
  /// with respect to concurrent add_edge/add_edges/connected calls: one call
  /// per batch instead of one virtual dispatch per edge. A `log` gets every
  /// hook, in order: with one hooking thread, exactly what turns the
  /// labels() before into those after.
  void add_edges(const std::pair<vertex_t, vertex_t>* edges, std::size_t count,
                 HookLog* log = nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      dsu_.unite(edges[i].first, edges[i].second, log);
    }
  }

  /// True if u and v are currently connected. Thread-safe with respect to
  /// concurrent add_edge (a racing insertion may or may not be visible,
  /// matching the usual linearizability of concurrent connectivity).
  [[nodiscard]] bool connected(vertex_t u, vertex_t v) { return dsu_.same(u, v); }

  /// Current representative of v's component (not canonicalized until
  /// labels() is called).
  [[nodiscard]] vertex_t component_of(vertex_t v) { return dsu_.find(v); }

  /// Current number of components. Quiescent call: no concurrent add_edge.
  [[nodiscard]] vertex_t num_components() const { return dsu_.count(); }

  /// Materializes the canonical labeling (label[v] = smallest vertex of
  /// v's component). Quiescent call: no concurrent add_edge.
  [[nodiscard]] std::vector<vertex_t> labels() {
    dsu_.flatten();
    const auto parents = dsu_.parents();
    return {parents.begin(), parents.end()};
  }

  [[nodiscard]] vertex_t num_vertices() const { return dsu_.size(); }

 private:
  ConcurrentDisjointSet dsu_;
};

}  // namespace ecl
