// Work claiming on every CPU the calling thread may run on.
//
// A job split into independent units (checkpoint chunks, R-MAT edge chunks,
// the passes of build_graph, the blocks of rows or sites in which the grid,
// road and web generators write their CSR) runs on the caller plus one
// short-lived helper thread per other CPU in the caller's affinity mask; all
// of them claim unit indices from one shared counter until none are left.
// Each helper is pinned to its CPU at creation: an unpinned thread starts on
// the CPU that spawned it and stays there long enough to serialize a job
// this short. The caller's own affinity is never changed, so callers spawned
// from one thread (core_solve's four generator threads) can share one CPU
// while the others idle; the helpers are then what reaches the idle CPUs,
// and a job should leave its caller little to do outside the claimed units.
#pragma once

#include <cstddef>
#include <functional>

namespace ecl {

/// The number of CPUs in the calling thread's affinity mask, at least 1.
[[nodiscard]] std::size_t allowed_cpus();

/// Runs work(i) once for every i < count: the caller and one helper thread
/// per other CPU in its affinity mask (at most count workers in all) claim
/// indices until none are left, and every helper is joined before this
/// returns. A helper that cannot be created only leaves fewer workers; one
/// allowed CPU, or count <= 1, means the caller works alone and no thread
/// starts. work must not throw: an exception from it terminates the program.
void for_each_claimed(std::size_t count, const std::function<void(std::size_t)>& work);

}  // namespace ecl
