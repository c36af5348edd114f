// The four find (pointer-jumping) variants evaluated in the paper's Fig. 8.
//
// All are algorithm templates over a ParentOps access policy so that the
// serial CPU, OpenMP CPU and simulated-GPU implementations execute exactly
// the same code. Each variant can optionally record the traversed path
// length into a PathLengthRecorder (paper Table 4).
#pragma once

#include <cstdint>

#include "dsu/parent_ops.h"
#include "obs/metrics.h"

namespace ecl {

/// Pointer-jumping flavour used inside find operations (paper §5.1, Fig. 8).
enum class JumpPolicy {
  kMultiple = 1,      // Jump1: two-pass full compression to the representative
  kSingle = 2,        // Jump2: only the start vertex is re-pointed
  kNone = 3,          // Jump3: pure traversal, no compression
  kIntermediate = 4,  // Jump4: path halving (ECL-CC's choice)
};

/// Accumulates path lengths observed by find operations (paper Table 4) and
/// hook statistics from the union side (obs counters `ecl.hook.*`).
/// Not thread-safe; parallel callers keep one per thread and merge().
/// Plain fields by design: the per-operation cost in the compute hot loop is
/// a register increment, and the owner folds the totals into the (atomic)
/// obs registry once per thread per phase.
/// Optionally forwards every per-find length to an obs::Histogram so the
/// full distribution — not just avg/max — reaches the metrics registry
/// (ecl_cc_path_lengths attaches "ecl.find.path_length").
struct PathLengthRecorder {
  std::uint64_t total_length = 0;
  std::uint64_t num_finds = 0;
  std::uint64_t max_length = 0;
  std::uint64_t hooks_performed = 0;    // successful CAS hooks
  std::uint64_t cas_retries = 0;        // CAS attempts lost to another thread
  obs::Histogram* histogram = nullptr;  // optional distribution sink

  void record(std::uint64_t length) {
    total_length += length;
    ++num_finds;
    if (length > max_length) max_length = length;
    if (histogram != nullptr) histogram->record(length);
  }

  void merge(const PathLengthRecorder& other) {
    total_length += other.total_length;
    num_finds += other.num_finds;
    if (other.max_length > max_length) max_length = other.max_length;
    hooks_performed += other.hooks_performed;
    cas_retries += other.cas_retries;
  }

  [[nodiscard]] double average() const {
    return num_finds == 0 ? 0.0
                          : static_cast<double>(total_length) / static_cast<double>(num_finds);
  }
};

/// Minimal statistics sink for the production compute path: same duck-typed
/// interface as PathLengthRecorder (the find/hook templates accept either),
/// but record() is two register adds — no max tracking, no histogram branch —
/// so the always-on obs counters stay within the ≤5% overhead budget that
/// scripts/check_obs_overhead.py enforces.
struct ComputeStats {
  std::uint64_t total_length = 0;
  std::uint64_t num_finds = 0;
  std::uint64_t hooks_performed = 0;
  std::uint64_t cas_retries = 0;

  void record(std::uint64_t length) {
    total_length += length;
    ++num_finds;
  }
};

/// Jump4 — intermediate pointer jumping (path halving; paper Fig. 5).
/// One traversal; every visited element is made to skip its successor,
/// halving the path for everyone while heading to the representative.
template <ParentOps Ops, typename Rec = PathLengthRecorder>
vertex_t find_intermediate(vertex_t v, Ops ops, Rec* rec = nullptr) {
  std::uint64_t steps = 0;
  vertex_t par = ops.load(v);
  if (par != v) {
    vertex_t next;
    vertex_t prev = v;
    while (par > (next = ops.load(par))) {
      ops.store(prev, next);
      prev = par;
      par = next;
      ++steps;
    }
  }
  if (rec != nullptr) rec->record(steps);
  return par;
}

/// Jump2 — single pointer jumping: walk to the representative, then point
/// only the start vertex at it.
template <ParentOps Ops, typename Rec = PathLengthRecorder>
vertex_t find_single(vertex_t v, Ops ops, Rec* rec = nullptr) {
  std::uint64_t steps = 0;
  const vertex_t first = ops.load(v);
  vertex_t root = first;
  vertex_t next;
  while (root > (next = ops.load(root))) {
    root = next;
    ++steps;
  }
  // Compared against the first read, not a fresh one: if v was a root then
  // and has been hooked since, re-reading parent[v] would see the hook and
  // overwrite it with v itself, undoing a union.
  if (root != first) ops.store(v, root);
  if (rec != nullptr) rec->record(steps);
  return root;
}

/// Jump3 — no pointer jumping: traverse only.
template <ParentOps Ops, typename Rec = PathLengthRecorder>
vertex_t find_none(vertex_t v, Ops ops, Rec* rec = nullptr) {
  std::uint64_t steps = 0;
  vertex_t root = ops.load(v);
  vertex_t next;
  while (root > (next = ops.load(root))) {
    root = next;
    ++steps;
  }
  if (rec != nullptr) rec->record(steps);
  return root;
}

/// Jump1 — multiple pointer jumping: first pass finds the representative,
/// second pass re-points every element on the path at it.
template <ParentOps Ops, typename Rec = PathLengthRecorder>
vertex_t find_multiple(vertex_t v, Ops ops, Rec* rec = nullptr) {
  std::uint64_t steps = 0;
  vertex_t root = ops.load(v);
  vertex_t next;
  while (root > (next = ops.load(root))) {
    root = next;
    ++steps;
  }
  vertex_t cur = v;
  while (cur > root) {
    const vertex_t parent = ops.load(cur);
    if (parent != root) ops.store(cur, root);
    cur = parent;
  }
  if (rec != nullptr) rec->record(steps);
  return root;
}

/// Runtime dispatch over the four variants.
template <ParentOps Ops, typename Rec = PathLengthRecorder>
vertex_t find_repres(JumpPolicy policy, vertex_t v, Ops ops, Rec* rec = nullptr) {
  switch (policy) {
    case JumpPolicy::kMultiple:
      return find_multiple(v, ops, rec);
    case JumpPolicy::kSingle:
      return find_single(v, ops, rec);
    case JumpPolicy::kNone:
      return find_none(v, ops, rec);
    case JumpPolicy::kIntermediate:
      break;
  }
  return find_intermediate(v, ops, rec);
}

/// Human-readable policy name ("Jump1".."Jump4"), for benchmark tables.
[[nodiscard]] constexpr const char* jump_policy_name(JumpPolicy policy) {
  switch (policy) {
    case JumpPolicy::kMultiple:
      return "Jump1 (multiple)";
    case JumpPolicy::kSingle:
      return "Jump2 (single)";
    case JumpPolicy::kNone:
      return "Jump3 (none)";
    case JumpPolicy::kIntermediate:
      return "Jump4 (intermediate)";
  }
  return "?";
}

}  // namespace ecl
