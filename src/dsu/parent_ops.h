// Access policies for the shared parent (union-find) array.
//
// Every CC implementation in this library runs the same find/hook algorithm
// templates (see dsu/find.h, dsu/hook.h); what differs is how the parent
// array is read and written:
//
//   * SerialParentOps  — plain loads/stores; the CAS cannot fail, so the
//     compiler elides the retry loop (the paper's serial ECL-CC).
//   * AtomicParentOps  — std::atomic_ref with relaxed ordering, matching the
//     paper's CUDA/OpenMP code (aligned word accesses + CAS). Using
//     atomic_ref makes the paper's "benign data races" well-defined C++
//     instead of UB while compiling to the same instructions.
//   * gpusim's SimParentOps — routes every access through the simulated
//     memory hierarchy so cache statistics (paper Table 3) can be collected.
//   * the CUDA backend's CudaParentOps — device memory and atomicCAS.
//
// The concept below documents the required shape.
#pragma once

#include <atomic>
#include <concepts>

#include "common/types.h"

namespace ecl {

/// What find/hook need from a parent array.
template <typename Ops>
concept ParentOps = requires(Ops ops, vertex_t i, vertex_t v) {
  { ops.load(i) } -> std::same_as<vertex_t>;
  { ops.store(i, v) };
  { ops.cas(i, v, v) } -> std::same_as<vertex_t>;
};

/// Plain (single-threaded) accesses.
class SerialParentOps {
 public:
  explicit SerialParentOps(vertex_t* parent) : parent_(parent) {}

  [[nodiscard]] vertex_t load(vertex_t i) const { return parent_[i]; }
  void store(vertex_t i, vertex_t value) { parent_[i] = value; }

  /// Returns the previous value; stores `desired` iff it equals `expected`.
  /// Single-threaded, so this never observes interference.
  vertex_t cas(vertex_t i, vertex_t expected, vertex_t desired) {
    const vertex_t old = parent_[i];
    if (old == expected) parent_[i] = desired;
    return old;
  }

 private:
  vertex_t* parent_;
};

/// Lock-free concurrent accesses through std::atomic_ref, all relaxed, as in
/// the paper's kernels. Relaxed is sufficient per the paper's §3 argument:
/// any torn-free value read from the parent array is a valid waypoint toward
/// the representative, and the CAS in the hook retries until it wins.
class AtomicParentOps {
 public:
  explicit AtomicParentOps(vertex_t* parent) : parent_(parent) {}

  [[nodiscard]] vertex_t load(vertex_t i) const {
    return std::atomic_ref<vertex_t>(parent_[i]).load(std::memory_order_relaxed);
  }

  void store(vertex_t i, vertex_t value) {
    std::atomic_ref<vertex_t>(parent_[i]).store(value, std::memory_order_relaxed);
  }

  /// atomicCAS semantics from CUDA: returns the value observed at parent[i];
  /// the store happened iff the return value equals `expected`.
  vertex_t cas(vertex_t i, vertex_t expected, vertex_t desired) {
    std::atomic_ref<vertex_t> slot(parent_[i]);
    slot.compare_exchange_strong(expected, desired, std::memory_order_relaxed);
    return expected;  // updated to the observed value on failure
  }

 private:
  vertex_t* parent_;
};

static_assert(ParentOps<SerialParentOps>);
static_assert(ParentOps<AtomicParentOps>);

}  // namespace ecl
