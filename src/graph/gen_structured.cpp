// Structured (non-random) generators: grids and triangulations, each one
// component.
#include <stdexcept>
#include <utility>

#include "common/claim.h"
#include "graph/builder.h"
#include "graph/claim_blocks.h"
#include "graph/generators.h"

namespace ecl {

Graph gen_grid2d(vertex_t rows, vertex_t cols) {
  const auto n = static_cast<std::uint64_t>(rows) * cols;
  if (n > static_cast<std::uint64_t>(kInvalidVertex)) {
    throw std::invalid_argument("gen_grid2d: grid too large");
  }
  if (n == 0) return Graph();
  // Writes the conditioned CSR directly: each list is v - cols, v - 1,
  // v + 1, v + cols, whichever exist, which is already ascending and
  // duplicate-free, so build_graph would return these same arrays. Row r's
  // lists start after the earlier rows' links along a row, 2 (cols - 1)
  // arcs each, the links between two earlier rows, 2 cols arcs each, and,
  // when row r exists, row r - 1's cols links down into it. So every block
  // of rows knows where it starts and is written by the worker claiming it.
  const auto row_start = [rows, cols](vertex_t r) -> edge_t {
    const edge_t along = edge_t{2} * (cols - 1) * r;
    return r == 0 ? 0 : along + edge_t{2} * cols * (r - 1) + (r < rows ? cols : 0);
  };
  UninitVector<edge_t> offsets(n + 1);
  UninitVector<vertex_t> adjacency(row_start(rows));
  const ClaimBlocks blocks(n, rows);
  for_each_claimed(blocks.count, [&](std::size_t b) {
    const auto first = static_cast<vertex_t>(blocks.begin(b));
    const auto last = static_cast<vertex_t>(blocks.begin(b + 1));
    edge_t k = row_start(first);
    for (vertex_t r = first; r < last; ++r) {
      for (vertex_t c = 0; c < cols; ++c) {
        const vertex_t v = r * cols + c;
        offsets[v] = k;
        if (r > 0) adjacency[k++] = v - cols;
        if (c > 0) adjacency[k++] = v - 1;
        if (c + 1 < cols) adjacency[k++] = v + 1;
        if (r + 1 < rows) adjacency[k++] = v + cols;
      }
    }
  });
  offsets[n] = adjacency.size();
  return Graph(std::move(offsets), std::move(adjacency));
}

Graph gen_delaunay_like(vertex_t rows, vertex_t cols) {
  const auto n = static_cast<std::uint64_t>(rows) * cols;
  if (n > static_cast<std::uint64_t>(kInvalidVertex)) {
    throw std::invalid_argument("gen_delaunay_like: grid too large");
  }
  GraphBuilder b(static_cast<vertex_t>(n));
  auto id = [cols](vertex_t r, vertex_t c) { return r * cols + c; };
  for (vertex_t r = 0; r < rows; ++r) {
    for (vertex_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
      // Alternating diagonals triangulate each grid cell, matching the
      // average degree (~6) of a Delaunay triangulation while staying planar.
      if (r + 1 < rows && c + 1 < cols) {
        if ((r + c) % 2 == 0) {
          b.add_edge(id(r, c), id(r + 1, c + 1));
        } else {
          b.add_edge(id(r, c + 1), id(r + 1, c));
        }
      }
    }
  }
  return b.build();
}

}  // namespace ecl
