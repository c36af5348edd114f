// Network-shaped generators: road maps, preferential attachment, citation
// networks, and web crawls.
#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/claim.h"
#include "common/rng.h"
#include "graph/builder.h"
#include "graph/claim_blocks.h"
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
  const vertex_t rows = (n - 1) / side + 1;  // the last may be partial
  const auto width = [n, side, rows](vertex_t r) -> vertex_t {
    if (r >= rows) return 0;
    return static_cast<vertex_t>(std::min<std::uint64_t>(side, n - std::uint64_t{r} * side));
  };
  // Vertex (r, c) draws one number per neighbour it may have a road to, in
  // the order right, down, diagonal; those exist while c + 1 < width(r),
  // c < width(r + 1) and c + 1 < width(r + 1). So the draws before a row
  // follow from the widths alone, and each block of rows draws from the
  // seed's stream jumped ahead to its first row (Xoshiro256::discard): the
  // roads are those of one serial walk over the rows.
  const auto row_draws = [&width](vertex_t r) -> std::uint64_t {
    const vertex_t below = width(r + 1);
    return (width(r) - 1) + below + (below > 0 ? below - 1 : 0);
  };
  // Each vertex's roads to its right, lower and lower-right neighbours, as
  // flag bits; a flag is set only when that neighbour exists.
  constexpr std::uint8_t kRight = 1, kDown = 2, kDiagonal = 4;
  constexpr std::uint8_t kDownward = kDown | kDiagonal;
  UninitVector<std::uint8_t> roads(n);
  // Per block: its roads, and those of its last row that lead down, whose
  // arcs into the next row sit in the next block's lists.
  struct BlockRoads {
    edge_t all = 0;
    edge_t down = 0;
  };
  const ClaimBlocks blocks(n, rows);
  std::vector<BlockRoads> block_roads(blocks.count);
  for_each_claimed(blocks.count, [&](std::size_t b) {
    const auto first = static_cast<vertex_t>(blocks.begin(b));
    const auto last = static_cast<vertex_t>(blocks.begin(b + 1));
    Xoshiro256 rng(seed);
    std::uint64_t skip = 0;
    for (vertex_t r = 0; r < first; ++r) skip += row_draws(r);
    rng.discard(skip);
    BlockRoads& count = block_roads[b];
    for (vertex_t r = first; r < last; ++r) {
      const vertex_t here = width(r);
      const vertex_t below = width(r + 1);
      for (vertex_t c = 0; c < here; ++c) {
        std::uint8_t flags = 0;
        if (c + 1 < here && rng.uniform() < 0.92) flags |= kRight;
        if (c < below && rng.uniform() < 0.92) flags |= kDown;
        if (c + 1 < below && rng.uniform() < 0.05) flags |= kDiagonal;
        roads[r * side + c] = flags;
        count.all += static_cast<edge_t>(std::popcount(flags));
        if (r + 1 == last) {
          count.down += static_cast<edge_t>(std::popcount(std::uint8_t(flags & kDownward)));
        }
      }
    }
  });
  // Each road is two arcs, one in each end's list, so block b's lists start
  // after both arcs of every earlier block's roads, less the arcs into
  // block b's first row, which are its own.
  std::vector<edge_t> block_start(blocks.count);
  edge_t m = 0;
  for (std::size_t b = 0; b < blocks.count; ++b) {
    block_start[b] = m - (b > 0 ? block_roads[b - 1].down : 0);
    m += 2 * block_roads[b].all;
  }
  // Writes the conditioned CSR directly. v's list is v - side - 1, v - side,
  // v - 1 (roads into v) then v + 1, v + side, v + side + 1 (roads out of
  // v), each present if its flag is set: ascending and duplicate-free, so
  // build_graph would return these same arrays. A vertex in column 0 takes
  // no road from v - 1 or v - side - 1, which lie in the last column, whose
  // right and diagonal flags are never set.
  UninitVector<edge_t> offsets(static_cast<std::size_t>(n) + 1);
  UninitVector<vertex_t> adjacency(m);
  for_each_claimed(blocks.count, [&](std::size_t b) {
    const auto first = static_cast<vertex_t>(blocks.begin(b) * side);
    const auto last = static_cast<vertex_t>(
        std::min<std::uint64_t>(n, std::uint64_t{blocks.begin(b + 1)} * side));
    edge_t k = block_start[b];
    for (vertex_t v = first; v < last; ++v) {
      offsets[v] = k;
      if (v > side && (roads[v - side - 1] & kDiagonal)) adjacency[k++] = v - side - 1;
      if (v >= side && (roads[v - side] & kDown)) adjacency[k++] = v - side;
      if (v > 0 && (roads[v - 1] & kRight)) adjacency[k++] = v - 1;
      if (roads[v] & kRight) adjacency[k++] = v + 1;
      if (roads[v] & kDown) adjacency[k++] = v + side;
      if (roads[v] & kDiagonal) adjacency[k++] = v + side + 1;
    }
  });
  offsets[n] = m;
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
  // one 64-bit row: bit i of rows[u] links u to its site's hub + i. A link
  // to another site goes from a page (or hub) to an earlier site's hub and
  // is kept once, as (page, that site's index), in the order drawn: site s's
  // links are cross[site_links[s], site_links[s + 1]).
  constexpr vertex_t kMaxSitePages = 63;
  static_assert(kMaxSitePages <= 64, "a site's links must fit one row");
  std::vector<std::uint64_t> rows(n, 0);
  using Link = std::pair<vertex_t, vertex_t>;  // (page, linked site)
  std::vector<Link> cross;
  std::vector<std::size_t> site_links;

  // Model a crawl as a sequence of "sites": dense star-like clusters whose
  // hub pages also link to earlier hubs. This yields the web-graph signature
  // in Table 2: dmin = 0 (isolated pages), very large dmax (hubs), many
  // small components plus one giant one.
  std::vector<vertex_t> hubs;
  std::vector<vertex_t> linked_pages;  // reused across sites
  vertex_t v = 0;
  while (v < n) {
    site_links.push_back(cross.size());
    const vertex_t site_size =
        static_cast<vertex_t>(2 + rng.bounded(kMaxSitePages - 1));  // pages in this site
    const vertex_t hub = v;
    const vertex_t end = static_cast<vertex_t>(
        std::min<std::uint64_t>(n, static_cast<std::uint64_t>(v) + site_size));
    auto site_link = [&rows, hub](vertex_t a, vertex_t b) {
      rows[a] |= std::uint64_t{1} << (b - hub);
      rows[b] |= std::uint64_t{1} << (a - hub);
    };
    auto cross_link = [&](vertex_t page) {
      cross.emplace_back(page, static_cast<vertex_t>(rng.bounded(hubs.size())));
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
      if (!hubs.empty() && rng.uniform() < 0.15 && connected_site) cross_link(page);
    }
    if (connected_site && !hubs.empty()) {
      // The hub links to a few earlier hubs, preferentially recent+popular.
      const int out_links = 1 + static_cast<int>(rng.bounded(3));
      for (int j = 0; j < out_links; ++j) cross_link(hub);
    }
    hubs.push_back(hub);
    v = end;
  }
  site_links.push_back(cross.size());

  // Writes the conditioned CSR directly. u's list is its links to earlier
  // sites' hubs, then its row's bits, then, for a hub, its in-links from
  // later sites: ascending and duplicate-free, so build_graph would return
  // these same arrays. Blocks of sites are claimed three times. First each
  // block sorts its links and drops their duplicates, which leaves each
  // page's out-links in a run, ascending, and the runs in page order.
  const ClaimBlocks blocks(n, hubs.size());
  // Site s's first page; n past the last site.
  const auto site_begin = [&](std::size_t s) { return s < hubs.size() ? hubs[s] : n; };
  std::vector<std::span<const Link>> kept(blocks.count);
  for_each_claimed(blocks.count, [&](std::size_t b) {
    const auto begin = cross.begin() + site_links[blocks.begin(b)];
    const auto end = cross.begin() + site_links[blocks.begin(b + 1)];
    std::sort(begin, end);
    kept[b] = {begin, std::unique(begin, end)};
  });
  // Then, serially, each hub's in-links: one counting sort of the kept
  // links by site, whose stable scatter keeps every hub's pages ascending.
  std::vector<edge_t> in_start(hubs.size() + 1, 0);
  for (const auto& links : kept) {
    for (const auto& [page, site] : links) ++in_start[site + 1];
  }
  for (std::size_t s = 0; s < hubs.size(); ++s) in_start[s + 1] += in_start[s];
  std::vector<vertex_t> in_links(in_start.back());
  {
    std::vector<edge_t> cursor(in_start.begin(), in_start.end() - 1);
    for (const auto& links : kept) {
      for (const auto& [page, site] : links) in_links[cursor[site]++] = page;
    }
  }
  // Then each block counts its arcs, and last writes its lists after those
  // of the blocks before it.
  std::vector<edge_t> block_start(blocks.count + 1, 0);
  for_each_claimed(blocks.count, [&](std::size_t b) {
    edge_t arcs = kept[b].size() + in_start[blocks.begin(b + 1)] - in_start[blocks.begin(b)];
    for (vertex_t u = site_begin(blocks.begin(b)); u < site_begin(blocks.begin(b + 1)); ++u) {
      arcs += static_cast<edge_t>(std::popcount(rows[u]));
    }
    block_start[b + 1] = arcs;
  });
  for (std::size_t b = 0; b < blocks.count; ++b) block_start[b + 1] += block_start[b];
  UninitVector<edge_t> offsets(static_cast<std::size_t>(n) + 1);
  UninitVector<vertex_t> adjacency(block_start.back());
  for_each_claimed(blocks.count, [&](std::size_t b) {
    edge_t k = block_start[b];
    auto link = kept[b].begin();
    for (std::size_t s = blocks.begin(b); s < blocks.begin(b + 1); ++s) {
      const vertex_t hub = hubs[s];
      for (vertex_t u = hub; u < site_begin(s + 1); ++u) {
        offsets[u] = k;
        for (; link != kept[b].end() && link->first == u; ++link) {
          adjacency[k++] = hubs[link->second];
        }
        for (std::uint64_t bits = rows[u]; bits != 0; bits &= bits - 1) {
          adjacency[k++] = hub + static_cast<vertex_t>(std::countr_zero(bits));
        }
        if (u == hub) {
          for (edge_t i = in_start[s]; i < in_start[s + 1]; ++i) adjacency[k++] = in_links[i];
        }
      }
    }
  });
  offsets[n] = adjacency.size();
  return Graph(std::move(offsets), std::move(adjacency));
}

}  // namespace ecl
