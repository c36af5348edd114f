// The hooking (union) operation of the paper's Fig. 6, as an algorithm
// template shared by the serial, OpenMP and simulated-GPU implementations.
#pragma once

#include <algorithm>
#include <vector>

#include "dsu/find.h"
#include "dsu/parent_ops.h"

namespace ecl {

/// One successful hook: the root `child` was linked under the root `parent`.
struct Hook {
  vertex_t child;
  vertex_t parent;
};

/// A recorder (see hook_representatives) that also logs every successful
/// hook, in order. Not thread-safe: one per hooking thread.
struct HookLog : ComputeStats {
  std::vector<Hook> hooks;

  void hooked(vertex_t child, vertex_t parent) { hooks.push_back({child, parent}); }
};

/// Tallies a successful hook into `rec`, and logs it when `rec` keeps a log.
template <typename Rec>
void record_hook(Rec* rec, vertex_t child, vertex_t parent) {
  ++rec->hooks_performed;
  if constexpr (requires { rec->hooked(child, parent); }) rec->hooked(child, parent);
}

/// Hooks the edge whose endpoint representatives are currently `v_rep` and
/// `u_rep` (the latter freshly computed by the caller): the larger
/// representative's parent is pointed at the smaller via CAS, retrying until
/// no other thread interferes (paper Fig. 6 lines 3-20).
///
/// Returns the common representative after the hook (the smaller of the two
/// final representatives), which callers keep as the running `v_rep` for the
/// remaining edges of the same vertex.
///
/// When a PathLengthRecorder is supplied, successful hooks and CAS retries
/// are tallied into its plain thread-local fields (the caller flushes them
/// to the `ecl.hook.*` registry counters once per thread per phase); atomic
/// or static-initialized counters here would wreck the compute loop's
/// inlining and codegen. A HookLog also records each successful hook.
template <ParentOps Ops, typename Rec = PathLengthRecorder>
vertex_t hook_representatives(vertex_t v_rep, vertex_t u_rep, Ops ops,
                              Rec* rec = nullptr) {
  bool repeat;
  do {
    repeat = false;
    if (v_rep != u_rep) {
      vertex_t ret;
      if (v_rep < u_rep) {
        if ((ret = ops.cas(u_rep, u_rep, v_rep)) != u_rep) {
          u_rep = ret;
          repeat = true;
          if (rec != nullptr) ++rec->cas_retries;
        } else {
          if (rec != nullptr) record_hook(rec, u_rep, v_rep);
        }
      } else {
        if ((ret = ops.cas(v_rep, v_rep, u_rep)) != v_rep) {
          v_rep = ret;
          repeat = true;
          if (rec != nullptr) ++rec->cas_retries;
        } else {
          if (rec != nullptr) record_hook(rec, v_rep, u_rep);
        }
      }
    }
  } while (repeat);
  return std::min(v_rep, u_rep);
}

/// Full edge processing for edge (v, u) given v's current representative:
/// find u's representative with the configured pointer-jumping flavour, then
/// hook. Callers must already have filtered to one direction (v > u).
template <ParentOps Ops, typename Rec = PathLengthRecorder>
vertex_t process_edge(JumpPolicy jump, vertex_t v_rep, vertex_t u, Ops ops,
                      Rec* rec = nullptr) {
  const vertex_t u_rep = find_repres(jump, u, ops, rec);
  return hook_representatives(v_rep, u_rep, ops, rec);
}

}  // namespace ecl
