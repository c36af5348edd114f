#include "dsu/disjoint_set.h"

namespace ecl {

void ConcurrentDisjointSet::flatten() {
  const vertex_t n = size();
  AtomicParentOps ops(parent_.data());
  for (vertex_t v = 0; v < n; ++v) {
    vertex_t root = ops.load(v);
    vertex_t next;
    while (root > (next = ops.load(root))) root = next;
    ops.store(v, root);
  }
}

vertex_t ConcurrentDisjointSet::count() const {
  vertex_t sets = 0;
  for (vertex_t v = 0; v < size(); ++v) {
    if (parent_[v] == v) ++sets;
  }
  return sets;
}

}  // namespace ecl
