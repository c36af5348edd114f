// Parallel breadth-first search substrate with direction optimization.
//
// Ligra's BFS — the engine behind the paper's Ligra+ BFSCC comparator and
// part of Multistep — switches between sparse top-down expansion and dense
// bottom-up sweeps depending on frontier size (Beamer et al.'s
// direction-optimizing BFS). This module provides that engine as the
// labeling traversal the CC codes use.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace ecl {

/// Tuning knobs for the direction optimizer (Beamer's alpha/beta).
struct BfsOptions {
  /// Switch to bottom-up when the frontier's out-degree sum exceeds
  /// (remaining edges / alpha).
  double alpha = 15.0;
  /// Switch back to top-down when the frontier shrinks below n / beta.
  double beta = 18.0;
  /// OpenMP threads (0 = runtime default).
  int num_threads = 0;
};

/// CC building block: runs a BFS from `source` writing `label_value` into
/// `label` for every reached vertex. Entries must be kInvalidVertex for
/// unvisited vertices; visited vertices are skipped. Returns the number of
/// newly labeled vertices.
vertex_t bfs_label(const Graph& g, vertex_t source, vertex_t label_value,
                   std::vector<vertex_t>& label, const BfsOptions& opts = {});

}  // namespace ecl
