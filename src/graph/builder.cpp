#include "graph/builder.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/claim.h"

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

namespace {

/// How many units each pass of build_graph splits its work into: one per
/// max(n, 2^16) edges, so each unit's row of n cursors costs at most as
/// many bytes as the unit's edges, and a small input stays one unit. At
/// most one per allowed CPU: every unit adds a row of n cursors that the
/// scans walk, and more rows cost more than claiming evens out.
std::size_t unit_count(std::size_t n, std::size_t m) {
  constexpr std::size_t kMinUnitEdges = std::size_t{1} << 16;
  return std::clamp<std::size_t>(m / std::max(n, kMinUnitEdges), 1, allowed_cpus());
}

}  // namespace

Graph build_graph(vertex_t num_vertices, std::span<const Edge> edges) {
  const std::size_t n = num_vertices;
  const std::size_t m = edges.size();
  const std::size_t units = unit_count(n, m);
  // Unit c's share of the edges and of the vertices: [begin(c), begin(c + 1)).
  const auto edge_begin = [&](std::size_t c) { return m * c / units; };
  const auto vertex_begin = [&](std::size_t r) { return n * r / units; };
  // One row of n entries per unit: counts, then cursors into the arc arrays.
  // They are edge_t like the offsets, so none can overflow for any input; a
  // 32-bit entry would at a vertex with 2^32 arcs before deduplication,
  // which one unit of 2^32 edges can hold. units <= m / max(n, 2^16) keeps
  // the rows, 8 B per vertex each, within the edge list's 8 B per edge.
  const auto rows = std::make_unique_for_overwrite<edge_t[]>(units * n);
  const auto row = [&](std::size_t c) { return rows.get() + c * n; };

  // Count pass: row(c)[v] counts the arcs with tail v among edge chunk c's
  // edges. Both arcs of every kept edge are counted, so every in-degree
  // equals the out-degree.
  std::atomic<bool> out_of_range{false};
  for_each_claimed(units, [&](std::size_t c) {
    edge_t* const count = row(c);
    std::fill_n(count, n, edge_t{0});
    for (std::size_t i = edge_begin(c); i < edge_begin(c + 1); ++i) {
      const auto [u, v] = edges[i];
      if (u >= n || v >= n) {
        out_of_range.store(true, std::memory_order_relaxed);
        return;
      }
      if (u == v) continue;
      ++count[u];
      ++count[v];
    }
  });
  if (out_of_range.load(std::memory_order_relaxed)) {
    throw std::out_of_range("build_graph: endpoint out of range");
  }

  // Scan: each vertex range's arc total, their exclusive prefix, then per
  // vertex v the offsets and, across the rows, where each edge chunk's arcs
  // of head v start: after every earlier chunk's, so each head's slots keep
  // edge order whichever worker fills them.
  std::vector<edge_t> range_start(units);
  for_each_claimed(units, [&](std::size_t r) {
    edge_t arcs = 0;
    for (std::size_t v = vertex_begin(r); v < vertex_begin(r + 1); ++v) {
      for (std::size_t c = 0; c < units; ++c) arcs += row(c)[v];
    }
    range_start[r] = arcs;
  });
  edge_t arcs = 0;
  for (edge_t& start : range_start) arcs += std::exchange(start, arcs);
  UninitVector<edge_t> offsets(n + 1);
  offsets[0] = 0;
  for_each_claimed(units, [&](std::size_t r) {
    edge_t cursor = range_start[r];
    for (std::size_t v = vertex_begin(r); v < vertex_begin(r + 1); ++v) {
      for (std::size_t c = 0; c < units; ++c) cursor += std::exchange(row(c)[v], cursor);
      offsets[v + 1] = cursor;
    }
  });

  // Two stable scatters, an LSD radix sort of the arcs on (tail, head):
  // first each tail into its head's slots, then, walking heads in ascending
  // order, each head into its tail's slots, so every list comes out sorted
  // with its duplicates adjacent. The scratch is left uninitialised, so the
  // workers fault its pages in as they scatter.
  auto tails = std::make_unique_for_overwrite<vertex_t[]>(arcs);
  for_each_claimed(units, [&](std::size_t c) {
    edge_t* const cursor = row(c);
    for (std::size_t i = edge_begin(c); i < edge_begin(c + 1); ++i) {
      const auto [u, v] = edges[i];
      if (u == v) continue;
      tails[cursor[v]++] = u;
      tails[cursor[u]++] = v;
    }
  });

  // The second scatter runs per head range: ascending ranges of about
  // arcs / units arcs each, heads [range_head[r], range_head[r + 1]). Range
  // r's arcs for tail t go after those of every earlier range, so row(r)[t]
  // starts at offsets[t] plus the earlier ranges' count of t. Only ranges
  // before the last are counted, range r into row(r + 1); one unit counts
  // nothing.
  std::vector<std::size_t> range_head(units + 1, n);
  for (std::size_t r = 0; r < units; ++r) {
    range_head[r] = static_cast<std::size_t>(
        std::lower_bound(offsets.begin(), offsets.end(), arcs * r / units) - offsets.begin());
  }
  const auto head_arcs_begin = [&](std::size_t r) { return offsets[range_head[r]]; };
  for_each_claimed(units - 1, [&](std::size_t r) {
    edge_t* const count = row(r + 1);
    std::fill_n(count, n, edge_t{0});
    for (edge_t i = head_arcs_begin(r); i < head_arcs_begin(r + 1); ++i) ++count[tails[i]];
  });
  for_each_claimed(units, [&](std::size_t r) {
    for (std::size_t t = vertex_begin(r); t < vertex_begin(r + 1); ++t) {
      edge_t cursor = offsets[t];
      for (std::size_t c = 0; c < units; ++c) {
        const edge_t in_range = c + 1 < units ? row(c + 1)[t] : 0;
        row(c)[t] = cursor;
        cursor += in_range;
      }
    }
  });
  UninitVector<vertex_t> adjacency(arcs);
  for_each_claimed(units, [&](std::size_t r) {
    edge_t* const cursor = row(r);
    for (std::size_t h = range_head[r]; h < range_head[r + 1]; ++h) {
      for (edge_t i = offsets[h]; i < offsets[h + 1]; ++i) {
        adjacency[cursor[tails[i]]++] = static_cast<vertex_t>(h);
      }
    }
  });
  tails.reset();

  // Per head range, as the serial code would for one range: drop each
  // list's duplicates and slide it down over the slots freed by earlier
  // lists' duplicates, so offsets[v] becomes v's start within the
  // compacted range. The last list of a range ends where the next range
  // began, which is read from range_begin: that range's worker rewrites
  // its offsets meanwhile. Then the ranges move down, in order, over the
  // gaps between them, and each range's offsets shift with it.
  std::vector<edge_t> range_begin(units + 1);
  for (std::size_t r = 0; r <= units; ++r) range_begin[r] = offsets[range_head[r]];
  std::vector<edge_t> range_kept(units);
  vertex_t* const adj = adjacency.data();
  for_each_claimed(units, [&](std::size_t r) {
    edge_t begin = range_begin[r];
    edge_t write = begin;
    for (std::size_t v = range_head[r]; v < range_head[r + 1]; ++v) {
      const edge_t end = v + 1 < range_head[r + 1] ? offsets[v + 1] : range_begin[r + 1];
      vertex_t* const list_end = std::unique(adj + begin, adj + end);
      if (write != begin) std::move(adj + begin, list_end, adj + write);
      offsets[v] = write;
      write += static_cast<edge_t>(list_end - (adj + begin));
      begin = end;
    }
    range_kept[r] = write - range_begin[r];
  });
  std::vector<edge_t> shift(units);
  edge_t write = 0;
  for (std::size_t r = 0; r < units; ++r) {
    const edge_t begin = range_begin[r];
    if (write != begin) std::move(adj + begin, adj + begin + range_kept[r], adj + write);
    shift[r] = begin - write;
    write += range_kept[r];
  }
  for_each_claimed(units, [&](std::size_t r) {
    if (shift[r] == 0) return;
    for (std::size_t v = range_head[r]; v < range_head[r + 1]; ++v) offsets[v] -= shift[r];
  });
  offsets[n] = write;
  adjacency.resize(write);
  return Graph(std::move(offsets), std::move(adjacency));
}

}  // namespace ecl
