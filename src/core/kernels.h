// The bodies of the paper's five GPU kernels (§3), shared by the simulated
// device (gpusim/ecl_cc_gpu.cpp) and the CUDA backend (cuda/ecl_cc_cuda.cu).
// Each body is what one thread runs, grid-stride loop included, over:
//   Ctx      — the thread's place in the grid: global_id(), grid_size();
//   Reader   — the CSR graph: offset(v) and neighbor(e), each a device load;
//   Ops      — the parent array (dsu/parent_ops.h);
//   Worklist — the double-sided worklist: push_top(ctx, v),
//              push_bottom(ctx, v) and read(ctx, i).
// The vertex work itself is the templates the CPU ports run: engine.h's
// initial_parent and compute_vertex, and find.h's walks.
#pragma once

#include <cstdint>

#include "core/engine.h"

namespace ecl::kernels {

/// A recorder that records nothing. The kernels pass a null one, so the
/// find and hook templates' recorder calls compile away, on a device too.
struct NoRecorder {
  std::uint64_t hooks_performed = 0;
  std::uint64_t cas_retries = 0;
  ECL_HD void record(std::uint64_t /*length*/) {}
};
inline constexpr NoRecorder* kNoRecorder = nullptr;

/// The share of vertex v's adjacency list that one thread reads: edges
/// beg + first, beg + first + step, ... below end (all of them for step 1).
/// It is both the graph initial_parent and compute_vertex see (neighbors(v))
/// and its own iterator; offset(v) is loaded before offset(v + 1).
template <typename Reader>
class Adjacency {
 public:
  ECL_HD Adjacency(const Reader& g, vertex_t v, edge_t first = 0, edge_t step = 1)
      : g_(&g), e_(g.offset(v) + first), end_(g.offset(v + 1)), step_(step) {}

  [[nodiscard]] ECL_HD edge_t size() const { return end_ - e_; }  // when first == 0
  ECL_HD const Adjacency& neighbors(vertex_t /*v*/) const { return *this; }
  ECL_HD Adjacency begin() const { return *this; }
  ECL_HD edge_t end() const { return end_; }
  ECL_HD bool operator!=(edge_t last) const { return e_ < last; }
  ECL_HD vertex_t operator*() const { return g_->neighbor(e_); }
  ECL_HD Adjacency& operator++() {
    e_ += step_;
    return *this;
  }

 private:
  const Reader* g_;
  edge_t e_;
  edge_t end_;
  edge_t step_;
};

/// Initialization: seed parent[v] under `policy` (paper Fig. 7).
template <typename Ctx, typename Reader, ParentOps Ops>
ECL_HD void init(const Ctx& ctx, const Reader& g, vertex_t n, InitPolicy policy, Ops ops) {
  for (std::uint64_t vv = ctx.global_id(); vv < n; vv += ctx.grid_size()) {
    const auto v = static_cast<vertex_t>(vv);
    ops.store(v, detail::initial_parent(Adjacency(g, v), policy, v));
  }
}

/// Compute 1: a vertex of degree <= thread_limit is processed by its thread;
/// a larger one goes onto the worklist, the top side for compute 2 (degree
/// <= warp_limit), the bottom side for compute 3.
template <typename Ctx, typename Reader, ParentOps Ops, typename Worklist>
ECL_HD void compute_thread(const Ctx& ctx, const Reader& g, Worklist& worklist, vertex_t n,
                           vertex_t thread_limit, vertex_t warp_limit, JumpPolicy jump,
                           Ops ops) {
  for (std::uint64_t vv = ctx.global_id(); vv < n; vv += ctx.grid_size()) {
    const auto v = static_cast<vertex_t>(vv);
    const Adjacency adj(g, v);
    const auto degree = static_cast<vertex_t>(adj.size());
    if (degree > thread_limit) {
      if (degree <= warp_limit) {
        worklist.push_top(ctx, v);
      } else {
        worklist.push_bottom(ctx, v);
      }
      continue;
    }
    detail::compute_vertex(adj, jump, v, ops, kNoRecorder);
  }
}

/// Compute 2 and 3: the `count` worklist slots from `first` are shared out
/// to groups of `width` threads (a warp for compute 2, a block for compute
/// 3), one vertex per group at a time; the group's threads stride the
/// vertex's adjacency list. The calling thread is `rank` in group `group`.
template <typename Ctx, typename Reader, ParentOps Ops, typename Worklist>
ECL_HD void compute_group(const Ctx& ctx, const Reader& g, const Worklist& worklist,
                          vertex_t first, vertex_t count, std::uint32_t width,
                          std::uint64_t group, std::uint32_t rank, JumpPolicy jump, Ops ops) {
  for (std::uint64_t i = group; i < count; i += ctx.grid_size() / width) {
    const vertex_t v = worklist.read(ctx, static_cast<vertex_t>(first + i));
    detail::compute_vertex(Adjacency(g, v, rank, width), jump, v, ops, kNoRecorder);
  }
}

/// Finalization: point parent[v] at its representative (paper Fig. 9).
/// Fini1, Fini2 and Fini3 are Jump4's, Jump1's and Jump3's walk, then one
/// store. Fini1's skips are the plain stores the simulator has always
/// charged: engine.h's finalize_vertex makes them CASes, which the simulator
/// charges at the L2, so that would change Fig. 9. Plain skips are race-free
/// only under the simulator's sequential schedule; the CUDA backend runs
/// Fini3 only.
template <typename Ctx, ParentOps Ops>
ECL_HD void finalize(const Ctx& ctx, vertex_t n, FinalizePolicy policy, Ops ops) {
  for (std::uint64_t vv = ctx.global_id(); vv < n; vv += ctx.grid_size()) {
    const auto v = static_cast<vertex_t>(vv);
    switch (policy) {
      case FinalizePolicy::kIntermediate:
        ops.store(v, find_intermediate(v, ops, kNoRecorder));
        break;
      case FinalizePolicy::kMultiple:
        ops.store(v, find_multiple(v, ops, kNoRecorder));
        break;
      case FinalizePolicy::kSingle:
        ops.store(v, find_none(v, ops, kNoRecorder));
        break;
    }
  }
}

}  // namespace ecl::kernels
