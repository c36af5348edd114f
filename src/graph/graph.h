// Immutable CSR (compressed sparse row) graph representation.
//
// All CC implementations in this library operate on this structure. As in
// the paper (§4, Table 2), an undirected graph is stored with both directed
// edges present, so num_edges() counts directed edges (2x the number of
// undirected edges).
//
// The two arrays are uninitialised storage (UninitVector): sizing them
// writes nothing, so each page is faulted in by whoever first fills it. The
// generators and build_graph fill them in blocks claimed on every CPU of
// the caller's mask (for_each_claimed, common/claim.h), so those workers
// touch the pages, not the caller, which may share its CPU with other
// generating threads; load_binary fills them by reading the file.
#pragma once

#include <cassert>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace ecl {

/// An allocator that leaves value-less elements unwritten: a vector using it
/// and sized, or grown by resize(), without a value holds whatever the
/// allocation held, even for std::pair, whose default constructor would
/// zero both members. Only for types with a trivial copy constructor and a
/// trivial destructor, whose objects the allocation itself creates.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U*) noexcept {
    static_assert(std::is_trivially_copy_constructible_v<U> &&
                  std::is_trivially_destructible_v<U>);
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

/// A vector whose elements are unwritten until the code that owns them
/// writes them; see UninitAllocator.
template <typename T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

class Graph {
 public:
  Graph() = default;

  /// Takes ownership of a prebuilt CSR. `offsets` must have size n+1 with
  /// offsets[0] == 0 and offsets[n] == adjacency.size(); use GraphBuilder
  /// to construct one from an edge list safely.
  Graph(UninitVector<edge_t> offsets, UninitVector<vertex_t> adjacency)
      : offsets_(std::move(offsets)), adjacency_(std::move(adjacency)) {
    assert(!offsets_.empty());
    assert(offsets_.front() == 0);
    assert(offsets_.back() == adjacency_.size());
  }

  /// Number of vertices n.
  [[nodiscard]] vertex_t num_vertices() const {
    return static_cast<vertex_t>(offsets_.size() - 1);
  }

  /// Number of *directed* edges (2x undirected when symmetrized).
  [[nodiscard]] edge_t num_edges() const {
    return static_cast<edge_t>(adjacency_.size());
  }

  /// Out-degree of v.
  [[nodiscard]] vertex_t degree(vertex_t v) const {
    assert(v < num_vertices());
    return static_cast<vertex_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Adjacency list of v in storage order.
  [[nodiscard]] std::span<const vertex_t> neighbors(vertex_t v) const {
    assert(v < num_vertices());
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// CSR row-offset array (size n+1). Exposed for kernel-style loops that
  /// index edges directly.
  [[nodiscard]] std::span<const edge_t> offsets() const { return offsets_; }

  /// CSR adjacency array (size m). Entry j is the head of directed edge j.
  [[nodiscard]] std::span<const vertex_t> adjacency() const { return adjacency_; }

  /// True when the graph has no vertices.
  [[nodiscard]] bool empty() const { return num_vertices() == 0; }

  /// Approximate in-memory footprint in bytes (CSR arrays only).
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.size() * sizeof(edge_t) + adjacency_.size() * sizeof(vertex_t);
  }

 private:
  UninitVector<edge_t> offsets_{0};
  UninitVector<vertex_t> adjacency_;
};

/// A directed edge as (tail, head); the builder's input unit.
using Edge = std::pair<vertex_t, vertex_t>;

}  // namespace ecl
