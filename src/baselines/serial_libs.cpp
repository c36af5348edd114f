// Serial library-style comparators: the algorithms AND the native graph
// data structures behind the Boost, igraph and LEMON connected-components
// routines (paper Table 1). The data-structure fidelity matters: these
// libraries do not traverse a packed CSR — BGL iterates a vector-of-vectors
// adjacency_list through property-map indirection, LEMON chases linked arc
// lists, igraph double-indirects through sorted incidence arrays — and that
// is a large part of why the paper measures them 5-11x behind ECL-CCser.
//
// Each code has a prepare step (building its native structure from our CSR,
// the untimed "graph conversion" of the paper's §4) and a timed run step.
#include <deque>
#include <stack>
#include <utility>

#include "baselines/baselines.h"

namespace ecl::baselines {

// ---------------------------------------------------------------------------
// Boost: adjacency_list<vecS, vecS> + disjoint_sets + incremental_components.

namespace {

/// BGL-style graph: one heap-allocated out-edge vector per vertex.
struct BoostishGraph {
  std::vector<std::vector<vertex_t>> out_edges;
};

std::vector<vertex_t> run_boost(const BoostishGraph& g) {
  const auto n = static_cast<vertex_t>(g.out_edges.size());
  // boost::disjoint_sets accesses rank/parent through property maps keyed
  // by a vertex_index map — an extra indirection on every operation.
  std::vector<vertex_t> index_map(n);
  for (vertex_t v = 0; v < n; ++v) index_map[v] = v;
  std::vector<vertex_t> parent(n);
  std::vector<std::uint8_t> rank(n, 0);
  // initialize_incremental_components
  for (vertex_t v = 0; v < n; ++v) parent[index_map[v]] = v;

  // find_with_full_path_compression, through the index map.
  auto find = [&](vertex_t v) {
    vertex_t root = v;
    while (parent[index_map[root]] != root) root = parent[index_map[root]];
    while (parent[index_map[v]] != root) {
      const vertex_t next = parent[index_map[v]];
      parent[index_map[v]] = root;
      v = next;
    }
    return root;
  };

  // incremental_components: union over every edge of the adjacency list.
  for (vertex_t v = 0; v < n; ++v) {
    for (const vertex_t u : g.out_edges[v]) {
      if (u >= v) continue;  // each undirected edge once
      vertex_t ra = find(v);
      vertex_t rb = find(u);
      if (ra == rb) continue;
      if (rank[index_map[ra]] < rank[index_map[rb]]) std::swap(ra, rb);
      parent[index_map[rb]] = ra;
      if (rank[index_map[ra]] == rank[index_map[rb]]) ++rank[index_map[ra]];
    }
  }

  // component_index pass, canonicalized to minima (ascending sweep).
  std::vector<vertex_t> label(n, kInvalidVertex);
  for (vertex_t v = 0; v < n; ++v) {
    const vertex_t r = find(v);
    if (label[r] == kInvalidVertex) label[r] = v;
  }
  for (vertex_t v = 0; v < n; ++v) label[v] = label[find(v)];
  return label;
}

}  // namespace

CcRunner make_boost_runner(const Graph& g) {
  auto native = std::make_shared<BoostishGraph>();
  native->out_edges.resize(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    native->out_edges[v].assign(nbrs.begin(), nbrs.end());
  }
  return [native] { return run_boost(*native); };
}

// ---------------------------------------------------------------------------
// LEMON: ListGraph (linked arc lists) + connectedComponents (DFS + NodeMap).

namespace {

/// LEMON ListGraph flavour: per-node head of a linked list of arcs; each
/// arc stores its target and the next arc. Traversal chases links.
struct LemonishGraph {
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::vector<std::uint64_t> first_out;  // per node
  std::vector<std::uint64_t> next_out;   // per arc
  std::vector<vertex_t> target;          // per arc
};

std::vector<vertex_t> run_lemon(const LemonishGraph& g) {
  const auto n = static_cast<vertex_t>(g.first_out.size());
  std::vector<vertex_t> comp_map(n, kInvalidVertex);  // NodeMap<int>
  // connectedComponents: DFS with an explicit stack of (node, current arc).
  std::stack<std::pair<vertex_t, std::uint64_t>> stack;
  for (vertex_t source = 0; source < n; ++source) {
    if (comp_map[source] != kInvalidVertex) continue;
    comp_map[source] = source;
    stack.emplace(source, g.first_out[source]);
    while (!stack.empty()) {
      auto& [v, arc] = stack.top();
      if (arc == LemonishGraph::kNone) {
        stack.pop();
        continue;
      }
      const vertex_t u = g.target[arc];
      arc = g.next_out[arc];
      if (comp_map[u] == kInvalidVertex) {
        comp_map[u] = source;
        stack.emplace(u, g.first_out[u]);
      }
    }
  }
  return comp_map;
}

}  // namespace

CcRunner make_lemon_runner(const Graph& g) {
  auto native = std::make_shared<LemonishGraph>();
  const vertex_t n = g.num_vertices();
  native->first_out.assign(n, LemonishGraph::kNone);
  native->next_out.reserve(g.num_edges());
  native->target.reserve(g.num_edges());
  // ListGraph prepends arcs, so lists come out in reverse insertion order —
  // matching LEMON's addArc behaviour.
  for (vertex_t v = 0; v < n; ++v) {
    for (const vertex_t u : g.neighbors(v)) {
      const std::uint64_t arc = native->target.size();
      native->target.push_back(u);
      native->next_out.push_back(native->first_out[v]);
      native->first_out[v] = arc;
    }
  }
  return [native] { return run_lemon(*native); };
}

// ---------------------------------------------------------------------------
// igraph: edge arrays (from/to) + sorted incidence index, BFS with dqueue.

namespace {

/// igraph_t flavour: each undirected edge stored once in from[]/to[];
/// per-vertex incidence is an index range (os/is) into edge-id arrays
/// (oi/ii), so every neighbor access double-indirects.
struct IgraphishGraph {
  vertex_t n = 0;
  std::vector<vertex_t> from, to;  // per edge
  std::vector<edge_t> oi, ii;      // edge ids sorted by from / by to
  std::vector<edge_t> os, is;      // per-vertex offsets into oi / ii
};

std::vector<vertex_t> run_igraph(const IgraphishGraph& g) {
  std::vector<vertex_t> membership(g.n, kInvalidVertex);
  std::deque<vertex_t> queue;  // igraph_dqueue
  for (vertex_t source = 0; source < g.n; ++source) {
    if (membership[source] != kInvalidVertex) continue;
    membership[source] = source;
    queue.push_back(source);
    while (!queue.empty()) {
      const vertex_t v = queue.front();
      queue.pop_front();
      // igraph_incident: outgoing then incoming incidence ranges.
      for (edge_t j = g.os[v]; j < g.os[v + 1]; ++j) {
        const vertex_t u = g.to[g.oi[j]];
        if (membership[u] == kInvalidVertex) {
          membership[u] = source;
          queue.push_back(u);
        }
      }
      for (edge_t j = g.is[v]; j < g.is[v + 1]; ++j) {
        const vertex_t u = g.from[g.ii[j]];
        if (membership[u] == kInvalidVertex) {
          membership[u] = source;
          queue.push_back(u);
        }
      }
    }
  }
  return membership;
}

}  // namespace

CcRunner make_igraph_runner(const Graph& g) {
  auto native = std::make_shared<IgraphishGraph>();
  native->n = g.num_vertices();
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (const vertex_t u : g.neighbors(v)) {
      if (u < v) {  // store each undirected edge once, as igraph does
        native->from.push_back(u);
        native->to.push_back(v);
      }
    }
  }
  const auto m = static_cast<edge_t>(native->from.size());
  // Build incidence indices with counting sort by from (oi/os) and to (ii/is).
  native->os.assign(native->n + 1, 0);
  native->is.assign(native->n + 1, 0);
  for (edge_t e = 0; e < m; ++e) {
    ++native->os[native->from[e] + 1];
    ++native->is[native->to[e] + 1];
  }
  for (vertex_t v = 0; v < native->n; ++v) {
    native->os[v + 1] += native->os[v];
    native->is[v + 1] += native->is[v];
  }
  native->oi.resize(m);
  native->ii.resize(m);
  std::vector<edge_t> ocur(native->os.begin(), native->os.end() - 1);
  std::vector<edge_t> icur(native->is.begin(), native->is.end() - 1);
  for (edge_t e = 0; e < m; ++e) {
    native->oi[ocur[native->from[e]]++] = e;
    native->ii[icur[native->to[e]]++] = e;
  }
  return [native] { return run_igraph(*native); };
}

}  // namespace ecl::baselines
