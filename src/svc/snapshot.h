// Immutable epoch snapshots: the read side of the connectivity service.
//
// A Snapshot is a fully materialized, canonical label array (label[v] =
// smallest vertex ID in v's component, exactly what the batch ECL-CC engine
// produces) frozen at a known ingest watermark. Readers hold a
// shared_ptr<const Snapshot> obtained from one atomic load, answer any
// number of queries against it without taking locks, and can never observe
// a partially applied batch: either the compaction that produced the
// snapshot saw an edge, or the edge is entirely invisible.
//
// Consistency contract (docs/SERVICE.md): a snapshot at epoch E with
// watermark W reflects *every* edge among the first W applied to the
// service and *no* later edge.
#pragma once

#include <cstdint>
#include <memory>

#include "common/page_array.h"
#include "common/types.h"

namespace ecl::svc {

struct Snapshot {
  /// Monotonic compaction generation; epoch 0 is the all-singleton state
  /// (or the seed graph's components when the service was seeded).
  std::uint64_t epoch = 0;
  /// Number of applied edges this snapshot reflects (ingest watermark).
  std::uint64_t watermark = 0;
  /// Canonical labels, size num_vertices: label[v] = min vertex of v's
  /// component. A restart's first snapshot is the loaded checkpoint's
  /// read-only mapping (page-cache pages, no copy); every compaction builds
  /// an anonymous array.
  PageArray labels;
  /// Number of distinct components in `labels`.
  vertex_t num_components = 0;
  /// Wall-clock cost of the compaction that built this snapshot.
  double build_ms = 0.0;

  [[nodiscard]] vertex_t num_vertices() const {
    return static_cast<vertex_t>(labels.size());
  }

  /// Snapshot-consistent connectivity query. Precondition: u, v < size.
  [[nodiscard]] bool connected(vertex_t u, vertex_t v) const {
    return labels[u] == labels[v];
  }
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

}  // namespace ecl::svc
