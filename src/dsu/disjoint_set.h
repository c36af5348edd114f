// General-purpose disjoint-set (union-find) data structures.
//
// DisjointSet is the textbook serial structure (union by rank + full path
// compression) used by the Boost-style baseline and available as a public
// utility. ConcurrentDisjointSet packages the lock-free parent array +
// path-halving find + CAS hook that ECL-CC is built from, for downstream
// users who want the union-find substrate without the CC driver (e.g. for
// Kruskal's MST, which the paper's conclusion calls out).
#pragma once

#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/page_array.h"
#include "common/types.h"
#include "dsu/find.h"
#include "dsu/hook.h"
#include "dsu/parent_ops.h"

namespace ecl {

/// Serial union-find with union by rank and full path compression
/// (amortized inverse-Ackermann per operation).
class DisjointSet {
 public:
  explicit DisjointSet(vertex_t n) : parent_(n), rank_(n, 0), num_sets_(n) {
    for (vertex_t v = 0; v < n; ++v) parent_[v] = v;
  }

  /// Representative of v's set.
  [[nodiscard]] vertex_t find(vertex_t v) {
    vertex_t root = v;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[v] != root) {
      const vertex_t next = parent_[v];
      parent_[v] = root;
      v = next;
    }
    return root;
  }

  /// Merges the sets of a and b; returns true if they were distinct.
  bool unite(vertex_t a, vertex_t b) {
    vertex_t ra = find(a);
    vertex_t rb = find(b);
    if (ra == rb) return false;
    if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    if (rank_[ra] == rank_[rb]) ++rank_[ra];
    --num_sets_;
    return true;
  }

  /// True if a and b are in the same set.
  [[nodiscard]] bool same(vertex_t a, vertex_t b) { return find(a) == find(b); }

  /// Current number of disjoint sets.
  [[nodiscard]] vertex_t count() const { return num_sets_; }

  /// Number of elements.
  [[nodiscard]] vertex_t size() const { return static_cast<vertex_t>(parent_.size()); }

 private:
  std::vector<vertex_t> parent_;
  std::vector<std::uint8_t> rank_;
  vertex_t num_sets_;
};

/// Lock-free concurrent union-find: the ECL-CC substrate as a reusable data
/// structure. Thread-safe: find() and unite() may be called concurrently
/// from any number of threads without locks (benign races per paper §3).
/// Representatives are always the minimum element of their set once all
/// unites have completed and flatten() has run.
class ConcurrentDisjointSet {
 public:
  /// n singletons.
  explicit ConcurrentDisjointSet(vertex_t n) : parent_(PageArray::uninitialized(n)) {
    std::iota(parent_.begin(), parent_.end(), vertex_t{0});
  }

  /// Representative of v's set, compressing the path by halving.
  [[nodiscard]] vertex_t find(vertex_t v) {
    return find_intermediate(v, AtomicParentOps(parent_.data()));
  }

  /// Merges the sets of a and b (smaller representative wins). A `log`
  /// records the hook, if one happens.
  void unite(vertex_t a, vertex_t b, HookLog* log = nullptr) {
    AtomicParentOps ops(parent_.data());
    const vertex_t ra = find_intermediate(a, ops);
    const vertex_t rb = find_intermediate(b, ops);
    hook_representatives(ra, rb, ops, log);
  }

  /// True if a and b are currently in the same set. Only stable once all
  /// concurrent unites have completed.
  [[nodiscard]] bool same(vertex_t a, vertex_t b) { return find(a) == find(b); }

  /// Points every element directly at its representative (the paper's
  /// finalization phase). Call after all unites; safe to parallelize
  /// externally over disjoint ranges.
  void flatten();

  /// Number of distinct sets (counts self-parented elements; call after
  /// unites have completed).
  [[nodiscard]] vertex_t count() const;

  [[nodiscard]] vertex_t size() const { return static_cast<vertex_t>(parent_.size()); }

  /// Read-only view of the parent array (labels after flatten()).
  [[nodiscard]] std::span<const vertex_t> parents() const { return parent_; }

 private:
  PageArray parent_;
};

}  // namespace ecl
