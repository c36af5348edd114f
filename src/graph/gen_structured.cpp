// Structured (non-random) generators: grids and triangulations, each one
// component.
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/builder.h"
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
  // duplicate-free, so build_graph would return these same arrays.
  std::vector<edge_t> offsets(n + 1);
  std::vector<vertex_t> adjacency(2 * ((n - rows) + (n - cols)));
  edge_t k = 0;
  for (vertex_t r = 0; r < rows; ++r) {
    for (vertex_t c = 0; c < cols; ++c) {
      const vertex_t v = r * cols + c;
      offsets[v] = k;
      if (r > 0) adjacency[k++] = v - cols;
      if (c > 0) adjacency[k++] = v - 1;
      if (c + 1 < cols) adjacency[k++] = v + 1;
      if (r + 1 < rows) adjacency[k++] = v + cols;
    }
  }
  offsets[n] = k;
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
