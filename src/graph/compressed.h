// Compressed CSR graph representation, in the style of Ligra+ (paper §2:
// "Ligra+ internally uses a compressed graph representation, making it
// possible to fit larger graphs into the available memory ... generally
// faster than Ligra when using its fast compression scheme").
//
// Encoding: per vertex, the first neighbor is stored as a zig-zag signed
// delta from the vertex ID, subsequent neighbors as deltas from their
// predecessor (adjacency lists are sorted, so these are positive), all as
// LEB128 varints. Typical suite graphs compress to 30-60% of the plain
// 4-byte adjacency array.
//
// Neighbor access decodes on the fly through a forward-iterator range, so
// every algorithm written against `for (vertex_t u : g.neighbors(v))`
// works unchanged on the compressed form (see core/ecl_cc.h's overloads).
#pragma once

#include <cstdint>
#include <iterator>
#include <vector>

#include "graph/graph.h"

namespace ecl {

class CompressedGraph {
 public:
  CompressedGraph() = default;

  /// Compresses a conditioned CSR graph (adjacency lists must be sorted,
  /// which GraphBuilder guarantees by default).
  [[nodiscard]] static CompressedGraph compress(const Graph& g);

  [[nodiscard]] vertex_t num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<vertex_t>(offsets_.size() - 1);
  }
  [[nodiscard]] edge_t num_edges() const { return num_edges_; }
  [[nodiscard]] vertex_t degree(vertex_t v) const { return degrees_[v]; }

  /// Bytes used by the compressed adjacency data plus per-vertex metadata.
  [[nodiscard]] std::size_t memory_bytes() const {
    return bytes_.size() + offsets_.size() * sizeof(edge_t) +
           degrees_.size() * sizeof(vertex_t);
  }

  /// Decoding iterator over one adjacency list.
  class NeighborIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = vertex_t;
    using difference_type = std::ptrdiff_t;

    NeighborIterator() = default;
    NeighborIterator(const std::uint8_t* pos, vertex_t base, vertex_t remaining);

    [[nodiscard]] vertex_t operator*() const { return current_; }
    NeighborIterator& operator++();

    [[nodiscard]] bool operator==(const NeighborIterator& other) const {
      return remaining_ == other.remaining_;
    }

   private:
    void decode_next();

    const std::uint8_t* pos_ = nullptr;
    vertex_t base_ = 0;       // value the next delta is relative to
    vertex_t current_ = 0;    // decoded neighbor
    vertex_t remaining_ = 0;  // neighbors left including current_
    bool first_ = true;
  };

  class NeighborRange {
   public:
    NeighborRange(NeighborIterator begin, NeighborIterator end)
        : begin_(begin), end_(end) {}
    [[nodiscard]] NeighborIterator begin() const { return begin_; }
    [[nodiscard]] NeighborIterator end() const { return end_; }

   private:
    NeighborIterator begin_;
    NeighborIterator end_;
  };

  /// Lazily-decoded neighbors of v, in sorted order.
  [[nodiscard]] NeighborRange neighbors(vertex_t v) const;

 private:
  std::vector<std::uint8_t> bytes_;   // varint-encoded adjacency stream
  std::vector<edge_t> offsets_;       // byte offset of each vertex's list
  std::vector<vertex_t> degrees_;
  edge_t num_edges_ = 0;
};

}  // namespace ecl
