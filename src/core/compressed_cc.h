// ECL-CC over the Ligra+-style compressed graph representation: the same
// three-phase algorithm, decoding adjacency lists on the fly. Trades
// decode cycles for memory footprint — the deal Ligra+ offers (§2).
#pragma once

#include <vector>

#include "core/ecl_cc.h"
#include "graph/compressed.h"

namespace ecl {

/// Serial ECL-CC on a compressed graph.
[[nodiscard]] std::vector<vertex_t> ecl_cc_serial(const CompressedGraph& g,
                                                  const EclOptions& opts = {},
                                                  PhaseTimes* times = nullptr);

}  // namespace ecl
