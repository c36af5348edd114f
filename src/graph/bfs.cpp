#include "graph/bfs.h"

#include <atomic>
#include <cstdint>
#include <omp.h>

namespace ecl {

vertex_t bfs_label(const Graph& g, vertex_t source, vertex_t label_value,
                   std::vector<vertex_t>& label, const BfsOptions& opts) {
  if (label[source] != kInvalidVertex) return 0;
  label[source] = label_value;

  // The label array owns the "visited" state: try_visit atomically claims
  // an unlabeled vertex, is_unvisited is the bottom-up sweep's non-claiming
  // check.
  const auto try_visit = [&label, label_value](vertex_t u) {
    std::atomic_ref<vertex_t> slot(label[u]);
    vertex_t expected = kInvalidVertex;
    return slot.load(std::memory_order_relaxed) == kInvalidVertex &&
           slot.compare_exchange_strong(expected, label_value, std::memory_order_relaxed);
  };
  const auto is_unvisited = [&label](vertex_t u) {
    return std::atomic_ref<vertex_t>(label[u]).load(std::memory_order_relaxed) ==
           kInvalidVertex;
  };

  const int nt = opts.num_threads > 0 ? opts.num_threads : omp_get_max_threads();
  const vertex_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  std::vector<std::uint8_t> in_frontier(n, 0);
  std::vector<vertex_t> frontier{source};
  std::uint64_t frontier_degree = g.degree(source);
  vertex_t reached = 1;
  bool bottom_up = false;

  while (!frontier.empty()) {
    // Direction heuristic: dense sweeps pay off while the frontier covers a
    // large fraction of the edges.
    bottom_up =
        frontier_degree > static_cast<std::uint64_t>(static_cast<double>(m) / opts.alpha) ||
        (bottom_up &&
         frontier.size() > static_cast<std::size_t>(static_cast<double>(n) / opts.beta));

    std::vector<vertex_t> next;
    std::uint64_t next_degree = 0;

    if (bottom_up) {
      for (const vertex_t v : frontier) in_frontier[v] = 1;
#pragma omp parallel num_threads(nt)
      {
        std::vector<vertex_t> local;
        std::uint64_t local_degree = 0;
#pragma omp for schedule(guided) nowait
        for (vertex_t u = 0; u < n; ++u) {
          if (!is_unvisited(u)) continue;
          // An unvisited vertex joins the next frontier if any neighbor is
          // in the current one.
          for (const vertex_t w : g.neighbors(u)) {
            if (in_frontier[w]) {
              if (try_visit(u)) {
                local.push_back(u);
                local_degree += g.degree(u);
              }
              break;
            }
          }
        }
#pragma omp critical(ecl_bfs_merge)
        {
          next.insert(next.end(), local.begin(), local.end());
          next_degree += local_degree;
        }
      }
      for (const vertex_t v : frontier) in_frontier[v] = 0;
    } else {
#pragma omp parallel num_threads(nt)
      {
        std::vector<vertex_t> local;
        std::uint64_t local_degree = 0;
#pragma omp for schedule(guided) nowait
        for (std::size_t i = 0; i < frontier.size(); ++i) {
          for (const vertex_t u : g.neighbors(frontier[i])) {
            if (try_visit(u)) {
              local.push_back(u);
              local_degree += g.degree(u);
            }
          }
        }
#pragma omp critical(ecl_bfs_merge)
        {
          next.insert(next.end(), local.begin(), local.end());
          next_degree += local_degree;
        }
      }
    }

    reached += static_cast<vertex_t>(next.size());
    frontier = std::move(next);
    frontier_degree = next_degree;
  }
  return reached;
}

}  // namespace ecl
