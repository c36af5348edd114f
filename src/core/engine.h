// The phase templates shared by every ECL-CC variant (serial, OpenMP, and —
// through core/kernels.h — the simulated and CUDA GPU kernels). Keeping the
// algorithm in one place means the correctness tests on one backend cover
// the algorithmic logic of all of them.
#pragma once

#include "core/ecl_cc.h"
#include "dsu/hook.h"
#include "dsu/parent_ops.h"
#include "graph/graph.h"

namespace ecl::detail {

/// Initial parent value for vertex v under `policy` (paper Fig. 7).
/// Templated over the graph representation: any type with a
/// `neighbors(vertex_t)` range (plain CSR Graph or CompressedGraph) works.
template <typename GraphT>
ECL_HD vertex_t initial_parent(const GraphT& g, InitPolicy policy, vertex_t v) {
  switch (policy) {
    case InitPolicy::kSelf:
      return v;
    case InitPolicy::kMinNeighbor: {
      vertex_t best = v;
      for (const vertex_t u : g.neighbors(v)) {
        if (u < best) best = u;
      }
      return best;
    }
    case InitPolicy::kFirstSmallerNeighbor:
      break;
  }
  for (const vertex_t u : g.neighbors(v)) {
    if (u < v) return u;  // stop at the first smaller neighbor (Init3)
  }
  return v;
}

/// Computation phase for one vertex: process each of v's edges exactly once
/// (only the v > u direction), hooking u's representative with v's running
/// representative.
template <typename GraphT, ParentOps Ops, typename Rec = PathLengthRecorder>
ECL_HD void compute_vertex(const GraphT& g, JumpPolicy jump, vertex_t v, Ops ops,
                           Rec* rec = nullptr) {
  vertex_t v_rep = find_repres(jump, v, ops, rec);
  for (const vertex_t u : g.neighbors(v)) {
    if (v > u) {
      v_rep = process_edge(jump, v_rep, u, ops, rec);
    }
  }
}

/// Finalization for one vertex: make parent[v] point directly at the
/// representative (paper Fig. 9 variants).
template <ParentOps Ops>
void finalize_vertex(FinalizePolicy policy, vertex_t v, Ops ops) {
  switch (policy) {
    case FinalizePolicy::kIntermediate: {
      // Path halving whose skips are CASes: a plain store could overwrite a
      // vertex that another thread has already finalized with the stale
      // grandparent it read earlier, leaving the output non-flat. No hooks
      // run during finalization, so every parent only ever decreases and a
      // skip that loses its CAS has nothing left to do.
      vertex_t par = ops.load(v);
      if (par != v) {
        vertex_t next;
        vertex_t prev = v;
        while (par > (next = ops.load(par))) {
          ops.cas(prev, par, next);
          prev = par;
          par = next;
        }
      }
      ops.store(v, par);
      return;
    }
    case FinalizePolicy::kMultiple:
      ops.store(v, find_multiple(v, ops));
      return;
    case FinalizePolicy::kSingle:
      break;
  }
  // Fini3: plain walk to the representative, then one write.
  vertex_t root = ops.load(v);
  vertex_t next;
  while (root > (next = ops.load(root))) root = next;
  ops.store(v, root);
}

}  // namespace ecl::detail
