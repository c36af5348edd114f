#include "core/compressed_cc.h"

#include "common/timer.h"
#include "core/engine.h"

namespace ecl {

std::vector<vertex_t> ecl_cc_serial(const CompressedGraph& g, const EclOptions& opts,
                                    PhaseTimes* times) {
  const vertex_t n = g.num_vertices();
  std::vector<vertex_t> parent(n);
  SerialParentOps ops(parent.data());
  Timer timer;

  for (vertex_t v = 0; v < n; ++v) {
    parent[v] = detail::initial_parent(g, opts.init, v);
  }
  if (times != nullptr) times->init_ms = timer.millis();

  timer.reset();
  for (vertex_t v = 0; v < n; ++v) {
    detail::compute_vertex(g, opts.jump, v, ops);
  }
  if (times != nullptr) times->compute_ms = timer.millis();

  timer.reset();
  for (vertex_t v = 0; v < n; ++v) {
    detail::finalize_vertex(opts.finalize, v, ops);
  }
  if (times != nullptr) times->finalize_ms = timer.millis();
  return parent;
}

}  // namespace ecl
