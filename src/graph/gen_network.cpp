// Network-shaped generators: road maps, preferential attachment, citation
// networks, and web crawls.
#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace ecl {

Graph gen_road_network(vertex_t n, std::uint64_t seed) {
  if (n == 0) return Graph();
  // Embed the vertices on a near-square jittered lattice and connect each
  // vertex to its lattice neighbors with high probability, occasionally
  // skipping one (a dead end) or adding a short diagonal (a shortcut road).
  // The result has degree ~2-4, a giant component and long shortest paths,
  // like europe_osm / USA-road-d.
  const auto side = static_cast<vertex_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  Xoshiro256 rng(seed);
  // Each vertex's roads to its right, lower and lower-right neighbours, as
  // flag bits; a flag is set only when that neighbour exists.
  constexpr std::uint8_t kRight = 1, kDown = 2, kDiagonal = 4;
  std::vector<std::uint8_t> roads(n);
  edge_t m = 0;
  auto id = [side](vertex_t r, vertex_t c) { return r * side + c; };
  for (vertex_t r = 0; r < side; ++r) {
    for (vertex_t c = 0; c < side; ++c) {
      const std::uint64_t u = id(r, c);
      if (u >= n) continue;
      const bool right_ok = c + 1 < side && id(r, c + 1) < n;
      const bool down_ok = r + 1 < side && id(r + 1, c) < n;
      std::uint8_t flags = 0;
      if (right_ok && rng.uniform() < 0.92) flags |= kRight;
      if (down_ok && rng.uniform() < 0.92) flags |= kDown;
      if (right_ok && down_ok && id(r + 1, c + 1) < n && rng.uniform() < 0.05) {
        flags |= kDiagonal;
      }
      roads[u] = flags;
      m += 2 * static_cast<edge_t>(std::popcount(flags));
    }
  }
  // Writes the conditioned CSR directly. v's list is v - side - 1, v - side,
  // v - 1 (roads into v) then v + 1, v + side, v + side + 1 (roads out of
  // v), each present if its flag is set: ascending and duplicate-free, so
  // build_graph would return these same arrays. A vertex in column 0 takes
  // no road from v - 1 or v - side - 1, which lie in the last column, whose
  // right and diagonal flags are never set.
  std::vector<edge_t> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<vertex_t> adjacency(m);
  edge_t k = 0;
  for (vertex_t v = 0; v < n; ++v) {
    offsets[v] = k;
    if (v > side && (roads[v - side - 1] & kDiagonal)) adjacency[k++] = v - side - 1;
    if (v >= side && (roads[v - side] & kDown)) adjacency[k++] = v - side;
    if (v > 0 && (roads[v - 1] & kRight)) adjacency[k++] = v - 1;
    if (roads[v] & kRight) adjacency[k++] = v + 1;
    if (roads[v] & kDown) adjacency[k++] = v + side;
    if (roads[v] & kDiagonal) adjacency[k++] = v + side + 1;
  }
  offsets[n] = k;
  return Graph(std::move(offsets), std::move(adjacency));
}

Graph gen_preferential_attachment(vertex_t n, vertex_t edges_per_vertex, std::uint64_t seed) {
  if (n == 0) return Graph();
  Xoshiro256 rng(seed);
  // Classic Barabasi-Albert via the repeated-endpoints trick: sampling a
  // uniform position in the running endpoint list picks vertices with
  // probability proportional to their degree.
  std::vector<vertex_t> endpoints;
  endpoints.reserve(2ULL * n * edges_per_vertex);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * edges_per_vertex);
  for (vertex_t v = 0; v < n; ++v) {
    const vertex_t links = std::min<vertex_t>(edges_per_vertex, v);
    for (vertex_t j = 0; j < links; ++j) {
      vertex_t target;
      if (endpoints.empty() || rng.uniform() < 0.1) {
        target = static_cast<vertex_t>(rng.bounded(v));  // uniform escape hatch
      } else {
        target = endpoints[rng.bounded(endpoints.size())];
      }
      edges.emplace_back(v, target);
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  return build_graph(n, edges);
}

Graph gen_citation(vertex_t n, vertex_t refs_per_vertex, double recency_bias,
                   std::uint64_t seed) {
  if (n == 0) return Graph();
  if (recency_bias < 0.0 || recency_bias > 1.0) {
    throw std::invalid_argument("gen_citation: recency_bias must be in [0,1]");
  }
  Xoshiro256 rng(seed);
  std::vector<vertex_t> endpoints;       // degree-proportional sampling pool
  std::vector<bool> withdrawn(n, false); // papers that neither cite nor get cited
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * refs_per_vertex);
  for (vertex_t v = 0; v < n; ++v) {
    // A few papers cite nothing and are never cited: they become the small
    // extra components seen in cit-Patents (3627 CCs in the paper's Table 2).
    if (rng.uniform() < 0.02) {
      withdrawn[v] = true;
      continue;
    }
    const vertex_t refs = std::min<vertex_t>(refs_per_vertex, v);
    for (vertex_t j = 0; j < refs; ++j) {
      vertex_t target = kInvalidVertex;
      for (int attempt = 0; attempt < 4 && target == kInvalidVertex; ++attempt) {
        vertex_t candidate;
        if (rng.uniform() < recency_bias) {
          // Cite a recent paper: uniform over the last window.
          const vertex_t window = std::min<vertex_t>(v, 1024);
          candidate = static_cast<vertex_t>(v - 1 - rng.bounded(window));
        } else if (!endpoints.empty()) {
          candidate = endpoints[rng.bounded(endpoints.size())];  // cite a classic
        } else {
          candidate = static_cast<vertex_t>(rng.bounded(v));
        }
        if (!withdrawn[candidate]) target = candidate;
      }
      if (target == kInvalidVertex) continue;  // all draws hit withdrawn papers
      edges.emplace_back(v, target);
      endpoints.push_back(target);
    }
  }
  return build_graph(n, edges);
}

Graph gen_web_graph(vertex_t n, std::uint64_t seed) {
  if (n == 0) return Graph();
  Xoshiro256 rng(seed);
  // A site has at most 63 pages, so each page's links within its site fit
  // one 64-bit row: bit i of rows[u] links u to its site's hub + i. Links to
  // other sites (to an earlier hub) are kept as arcs, both directions.
  constexpr vertex_t kMaxSitePages = 63;
  static_assert(kMaxSitePages <= 64, "a site's links must fit one row");
  std::vector<std::uint64_t> rows(n, 0);
  std::vector<Edge> cross;

  // Model a crawl as a sequence of "sites": dense star-like clusters whose
  // hub pages also link to earlier hubs. This yields the web-graph signature
  // in Table 2: dmin = 0 (isolated pages), very large dmax (hubs), many
  // small components plus one giant one.
  std::vector<vertex_t> hubs;
  std::vector<vertex_t> linked_pages;  // reused across sites
  vertex_t v = 0;
  while (v < n) {
    const vertex_t site_size =
        static_cast<vertex_t>(2 + rng.bounded(kMaxSitePages - 1));  // pages in this site
    const vertex_t hub = v;
    const vertex_t end = static_cast<vertex_t>(
        std::min<std::uint64_t>(n, static_cast<std::uint64_t>(v) + site_size));
    auto site_link = [&rows, hub](vertex_t a, vertex_t b) {
      rows[a] |= std::uint64_t{1} << (b - hub);
      rows[b] |= std::uint64_t{1} << (a - hub);
    };
    auto cross_link = [&cross](vertex_t a, vertex_t b) {
      cross.emplace_back(a, b);
      cross.emplace_back(b, a);
    };
    // ~2% of sites are crawl fragments disconnected from everything else.
    const bool connected_site = rng.uniform() > 0.02;
    // ~3% of pages are crawled but never linked: the dmin = 0 vertices of
    // Table 2. Decide them up front so navigation links can avoid them.
    linked_pages.clear();
    for (vertex_t page = v + 1; page < end; ++page) {
      if (rng.uniform() >= 0.03) linked_pages.push_back(page);
    }
    for (const vertex_t page : linked_pages) {
      site_link(hub, page);
      // Dense intra-site navigation (menus, breadcrumbs, related links):
      // web crawls average ~20-28 directed edges per page (Table 2).
      const int nav_links = 4 + static_cast<int>(rng.bounded(8));
      for (int l = 0; l < nav_links; ++l) {
        const vertex_t other = linked_pages[rng.bounded(linked_pages.size())];
        if (other != page) site_link(page, other);
      }
      // Occasional outbound link from a plain page to an earlier site.
      if (!hubs.empty() && rng.uniform() < 0.15 && connected_site) {
        cross_link(page, hubs[rng.bounded(hubs.size())]);
      }
    }
    if (connected_site && !hubs.empty()) {
      // The hub links to a few earlier hubs, preferentially recent+popular.
      const int out_links = 1 + static_cast<int>(rng.bounded(3));
      for (int j = 0; j < out_links; ++j) {
        const vertex_t target = hubs[rng.bounded(hubs.size())];
        cross_link(hub, target);
      }
    }
    hubs.push_back(hub);
    v = end;
  }

  // Writes the conditioned CSR directly. u's list is its links to earlier
  // sites' hubs, then its row's bits, then its in-links from later sites:
  // ascending and duplicate-free, so build_graph would return these same
  // arrays.
  std::sort(cross.begin(), cross.end());
  cross.erase(std::unique(cross.begin(), cross.end()), cross.end());
  edge_t m = cross.size();
  for (const std::uint64_t row : rows) m += static_cast<edge_t>(std::popcount(row));
  std::vector<edge_t> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<vertex_t> adjacency(m);
  edge_t k = 0;
  auto link = cross.cbegin();
  for (std::size_t s = 0; s < hubs.size(); ++s) {
    const vertex_t hub = hubs[s];
    const vertex_t end = s + 1 < hubs.size() ? hubs[s + 1] : n;
    for (vertex_t u = hub; u < end; ++u) {
      offsets[u] = k;
      for (; link != cross.cend() && link->first == u && link->second < hub; ++link) {
        adjacency[k++] = link->second;
      }
      for (std::uint64_t bits = rows[u]; bits != 0; bits &= bits - 1) {
        adjacency[k++] = hub + static_cast<vertex_t>(std::countr_zero(bits));
      }
      for (; link != cross.cend() && link->first == u; ++link) adjacency[k++] = link->second;
    }
  }
  offsets[n] = k;
  return Graph(std::move(offsets), std::move(adjacency));
}

}  // namespace ecl
