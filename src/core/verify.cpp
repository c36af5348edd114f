#include "core/verify.h"

#include <algorithm>
#include <sstream>

#include "graph/stats.h"

namespace ecl {

VerifyResult verify_labels(const Graph& g, std::span<const vertex_t> labels) {
  const vertex_t n = g.num_vertices();
  auto fail = [](std::string reason) { return VerifyResult{false, std::move(reason)}; };

  if (labels.size() != n) {
    return fail("label array size mismatch");
  }
  for (vertex_t v = 0; v < n; ++v) {
    if (labels[v] >= n) {
      return fail("label out of range at vertex " + std::to_string(v));
    }
    if (labels[labels[v]] != labels[v]) {
      return fail("label is not a fixed point at vertex " + std::to_string(v));
    }
  }
  for (vertex_t v = 0; v < n; ++v) {
    for (const vertex_t u : g.neighbors(v)) {
      if (labels[u] != labels[v]) {
        std::ostringstream ss;
        ss << "edge (" << v << ", " << u << ") spans labels " << labels[v] << " and "
           << labels[u];
        return fail(ss.str());
      }
    }
  }
  // Same-label-implies-same-component: with edge consistency established,
  // comparing against the reference partition closes the loop.
  const auto reference = reference_components(g);
  if (!same_partition(labels, reference)) {
    return fail("labeling merges vertices from different components");
  }
  return {};
}

bool same_partition(std::span<const vertex_t> a, std::span<const vertex_t> b) {
  if (a.size() != b.size()) return false;
  const auto n = static_cast<vertex_t>(a.size());
  // Injective mapping in both directions <=> identical partitions.
  std::vector<vertex_t> a_to_b(n, kInvalidVertex);
  std::vector<vertex_t> b_to_a(n, kInvalidVertex);
  for (vertex_t v = 0; v < n; ++v) {
    if (a[v] >= n || b[v] >= n) return false;
    if (a_to_b[a[v]] == kInvalidVertex) a_to_b[a[v]] = b[v];
    if (b_to_a[b[v]] == kInvalidVertex) b_to_a[b[v]] = a[v];
    if (a_to_b[a[v]] != b[v] || b_to_a[b[v]] != a[v]) return false;
  }
  return true;
}

vertex_t count_labels(std::span<const vertex_t> labels) {
  std::vector<vertex_t> sorted(labels.begin(), labels.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return static_cast<vertex_t>(sorted.size());
}

}  // namespace ecl
