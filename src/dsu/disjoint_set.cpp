#include "dsu/disjoint_set.h"

namespace ecl {

void ConcurrentDisjointSet::flatten() {
  const vertex_t n = size();
  OrderedParentOps ops(parent_.data());
  for (vertex_t v = 0; v < n; ++v) {
    vertex_t root = ops.load(v);
    vertex_t next;
    while (root > (next = ops.load(root))) root = next;
    ops.store(v, root);
  }
}

// The copy races hooks and finds. Both keep three invariants: parent[v] <= v,
// so a root is the minimum of its tree; a root changes only by a CAS hook
// onto a smaller root; halving re-points a non-root only at an ancestor. So
// trees only merge, and each copied link v -> out[v] joins two vertices that
// shared a tree when it was read: Fini on the copy joins nothing beyond the
// trees at the end of the copy.
//
// Nor does it split a tree that existed at the start, because the scan runs
// from n-1 down to 0. Suppose u and v share a tree then, but their copied
// chains end at roots x_u > x_v. u's chain was read before x_u (its vertices
// are larger), so when x_u was read as a root, u, and with it v, was in x_u's
// tree, whose minimum x_u then was; and v != x_u, so v > x_u. v's chain thus
// crosses x_u by some link b -> b' with b > x_u > b' (it cannot pass through
// x_u, a copied root), and b was read before x_u. b' shared v's tree when b
// was read, so it was in x_u's tree when x_u was read, below its minimum: a
// contradiction. An ascending copy has no such order: it can read a root,
// miss its hook, then read a member already halved onto the new root, and
// split the set.
//
// The argument orders the copy's reads after the writes they observe;
// acquire loads paired with OrderedParentOps' release stores and CASes give
// that order in the C++ memory model.
void ConcurrentDisjointSet::copy_parents(std::span<vertex_t> out) {
  OrderedParentOps ops(parent_.data());
  for (vertex_t v = size(); v-- > 0;) out[v] = ops.load(v);
}

vertex_t ConcurrentDisjointSet::count() const {
  vertex_t sets = 0;
  for (vertex_t v = 0; v < size(); ++v) {
    if (parent_[v] == v) ++sets;
  }
  return sets;
}

}  // namespace ecl
