// CRONO-style connected components [1]: Shiloach-Vishkin executed over a
// dense n x dmax adjacency matrix, as in the CRONO benchmark suite. The 2-D
// matrix is what makes CRONO memory-hungry: for graphs with high-degree
// vertices it fails to allocate, which the paper reports as "n/a". We
// reproduce that behaviour with an explicit memory limit.
#include <atomic>
#include <omp.h>

#include <memory>

#include "baselines/baselines.h"

namespace ecl::baselines {

namespace {

/// CRONO's native representation: the padded n x dmax neighbor matrix plus
/// per-row degrees, built once at graph-load time.
struct CronoMatrix {
  vertex_t n = 0;
  vertex_t dmax = 0;
  std::vector<vertex_t> degree;
  std::vector<vertex_t> cells;
};

std::size_t matrix_bytes(const Graph& g) {
  vertex_t dmax = 0;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) dmax = std::max(dmax, g.degree(v));
  return static_cast<std::size_t>(g.num_vertices()) * dmax * sizeof(vertex_t);
}

}  // namespace

bool crono_supports(const Graph& g, std::size_t memory_limit) {
  return matrix_bytes(g) <= memory_limit;
}

namespace {

std::vector<vertex_t> run_crono(const CronoMatrix& m, int threads) {
  const vertex_t n = m.n;
  const vertex_t dmax = m.dmax;
  const std::vector<vertex_t>& degree = m.degree;
  const std::vector<vertex_t>& matrix = m.cells;
  const int nt = threads > 0 ? threads : omp_get_max_threads();

  std::vector<vertex_t> label(n);
  for (vertex_t v = 0; v < n; ++v) label[v] = v;

  bool changed = dmax > 0;
  if (n == 0) return label;
  while (changed) {
    changed = false;
#pragma omp parallel for schedule(guided) num_threads(nt) reduction(|| : changed)
    for (vertex_t u = 0; u < n; ++u) {
      for (vertex_t j = 0; j < degree[u]; ++j) {
        const vertex_t w = matrix[static_cast<std::size_t>(u) * dmax + j];
        const vertex_t pu = label[u];
        const vertex_t pw = label[w];
        if (pw < pu && pu == label[pu]) {
          std::atomic_ref<vertex_t> root(label[pu]);
          vertex_t expected = pu;
          if (root.compare_exchange_strong(expected, pw, std::memory_order_relaxed)) {
            changed = true;
          }
        }
      }
    }
    bool jumped = true;
    while (jumped) {
      jumped = false;
#pragma omp parallel for schedule(static) num_threads(nt) reduction(|| : jumped)
      for (vertex_t v = 0; v < n; ++v) {
        const vertex_t p = label[v];
        const vertex_t pp = label[p];
        if (p != pp) {
          label[v] = pp;
          jumped = true;
        }
      }
    }
  }
  return label;
}

}  // namespace

CcRunner make_crono_runner(const Graph& g, int threads, std::size_t memory_limit) {
  auto m = std::make_shared<CronoMatrix>();
  m->n = g.num_vertices();
  if (m->n == 0 || !crono_supports(g, memory_limit)) {
    // "n/a" in the paper's tables: the runner reports failure by returning
    // an empty labeling (also the correct answer for an empty graph).
    return []() -> std::vector<vertex_t> { return {}; };
  }
  for (vertex_t v = 0; v < m->n; ++v) m->dmax = std::max(m->dmax, g.degree(v));
  // CRONO's defining data layout: a dense n x dmax neighbor matrix. Rows
  // are iterated up to the vertex's actual degree; the padding is what
  // wrecks the memory footprint (the "n/a" inputs) and the row stride is
  // what wrecks locality relative to CSR.
  m->degree.resize(m->n);
  m->cells.resize(static_cast<std::size_t>(m->n) * m->dmax);
  for (vertex_t v = 0; v < m->n; ++v) {
    const auto nbrs = g.neighbors(v);
    m->degree[v] = static_cast<vertex_t>(nbrs.size());
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      m->cells[static_cast<std::size_t>(v) * m->dmax + j] = nbrs[j];
    }
  }
  return [m, threads] { return run_crono(*m, threads); };
}

}  // namespace ecl::baselines
