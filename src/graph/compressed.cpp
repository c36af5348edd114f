#include "graph/compressed.h"

#include <cassert>
#include <stdexcept>

namespace ecl {

namespace {

/// Zig-zag maps signed deltas to unsigned varint payloads.
std::uint64_t zigzag_encode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t zigzag_decode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^ -static_cast<std::int64_t>(value & 1);
}

void write_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t read_varint(const std::uint8_t*& pos) {
  std::uint64_t value = 0;
  int shift = 0;
  while (*pos & 0x80) {
    value |= static_cast<std::uint64_t>(*pos & 0x7f) << shift;
    shift += 7;
    ++pos;
  }
  value |= static_cast<std::uint64_t>(*pos) << shift;
  ++pos;
  return value;
}

}  // namespace

CompressedGraph CompressedGraph::compress(const Graph& g) {
  CompressedGraph cg;
  const vertex_t n = g.num_vertices();
  cg.offsets_.resize(static_cast<std::size_t>(n) + 1, 0);
  cg.degrees_.resize(n);
  cg.num_edges_ = g.num_edges();
  cg.bytes_.reserve(g.num_edges());  // ~1-2 bytes per edge typically

  for (vertex_t v = 0; v < n; ++v) {
    cg.offsets_[v] = static_cast<edge_t>(cg.bytes_.size());
    const auto nbrs = g.neighbors(v);
    cg.degrees_[v] = static_cast<vertex_t>(nbrs.size());
    vertex_t prev = 0;
    bool first = true;
    for (const vertex_t u : nbrs) {
      if (first) {
        // First neighbor: signed delta from the vertex ID itself.
        write_varint(cg.bytes_, zigzag_encode(static_cast<std::int64_t>(u) -
                                              static_cast<std::int64_t>(v)));
        first = false;
      } else {
        if (u < prev) {
          throw std::invalid_argument(
              "CompressedGraph::compress: adjacency lists must be sorted");
        }
        write_varint(cg.bytes_, u - prev);  // sorted => non-negative delta
      }
      prev = u;
    }
  }
  cg.offsets_[n] = static_cast<edge_t>(cg.bytes_.size());
  return cg;
}

CompressedGraph::NeighborIterator::NeighborIterator(const std::uint8_t* pos, vertex_t base,
                                                    vertex_t remaining)
    : pos_(pos), base_(base), remaining_(remaining) {
  if (remaining_ > 0) decode_next();
}

void CompressedGraph::NeighborIterator::decode_next() {
  const std::uint64_t raw = read_varint(pos_);
  if (first_) {
    current_ = static_cast<vertex_t>(static_cast<std::int64_t>(base_) + zigzag_decode(raw));
    first_ = false;
  } else {
    current_ = static_cast<vertex_t>(current_ + raw);
  }
}

CompressedGraph::NeighborIterator& CompressedGraph::NeighborIterator::operator++() {
  --remaining_;
  if (remaining_ > 0) decode_next();
  return *this;
}

CompressedGraph::NeighborRange CompressedGraph::neighbors(vertex_t v) const {
  assert(v < num_vertices());
  return {NeighborIterator(bytes_.data() + offsets_[v], v, degrees_[v]),
          NeighborIterator(nullptr, 0, 0)};
}

}  // namespace ecl
