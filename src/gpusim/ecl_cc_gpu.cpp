// The ECL-CC GPU pipeline (paper §3) on the virtual device.
//
// Five kernels, whose bodies live in core/kernels.h (shared with the CUDA
// backend):
//   initialization — seed parent[] per the init policy;
//   compute 1      — thread granularity, vertices of degree <= 16; larger
//                    vertices are pushed onto the double-sided worklist
//                    (mid-degree on one side, high-degree on the other);
//   compute 2      — warp granularity, one worklist vertex per warp, lanes
//                    stride the adjacency list;
//   compute 3      — thread-block granularity for the high-degree side;
//   finalization   — point every parent at the representative.
#include <algorithm>

#include "core/kernels.h"
#include "graph/graph.h"
#include "gpusim/gpu_cc.h"
#include "gpusim/sim_parent_ops.h"
#include "gpusim/worklist.h"

namespace ecl::gpusim {

namespace {

/// Uploaded CSR image of the graph in device memory.
struct DeviceGraph {
  DeviceBuffer<edge_t> offsets;
  DeviceBuffer<vertex_t> adjacency;

  DeviceGraph(Device& dev, const Graph& g)
      : offsets(dev.alloc<edge_t>(g.num_vertices() + 1)),
        adjacency(dev.alloc<vertex_t>(std::max<std::size_t>(1, g.num_edges()))) {
    std::copy(g.offsets().begin(), g.offsets().end(), offsets.host().begin());
    std::copy(g.adjacency().begin(), g.adjacency().end(), adjacency.host().begin());
  }
};

/// The CSR as one virtual thread reads it: every load goes through the
/// cache model.
struct SimReader {
  const DeviceGraph& dg;
  const ThreadCtx& ctx;

  [[nodiscard]] edge_t offset(vertex_t v) const { return dg.offsets.load(ctx, v); }
  [[nodiscard]] vertex_t neighbor(edge_t e) const { return dg.adjacency.load(ctx, e); }
};

}  // namespace

GpuRunResult ecl_cc_gpu(const Graph& g, const DeviceSpec& spec, const GpuEclOptions& opts) {
  Device dev(spec);
  const vertex_t n = g.num_vertices();
  GpuRunResult result;
  if (n == 0) {
    return result;
  }

  DeviceGraph dg(dev, g);
  auto parent = dev.alloc<vertex_t>(n);
  // Double-sided worklist (size n): compute-2 vertices fill from the top,
  // compute-3 vertices from the bottom.
  DoubleSidedWorklist worklist(dev, n);

  const std::uint32_t bs = opts.block_size;

  dev.launch("initialization", dev.blocks_for(n, bs), bs, [&](const ThreadCtx& ctx) {
    kernels::init(ctx, SimReader{dg, ctx}, n, opts.init, SimParentOps(parent, ctx));
  });

  dev.launch("compute 1", dev.blocks_for(n, bs), bs, [&](const ThreadCtx& ctx) {
    kernels::compute_thread(ctx, SimReader{dg, ctx}, worklist, n, opts.thread_degree_limit,
                            opts.warp_degree_limit, opts.jump, SimParentOps(parent, ctx));
  });

  const vertex_t num_mid = worklist.top_count();
  const vertex_t bottom = worklist.bottom_begin();
  const vertex_t num_high = worklist.bottom_count();

  if (num_mid > 0) {
    const std::uint32_t warp = spec.warp_size;
    const std::uint64_t threads = static_cast<std::uint64_t>(num_mid) * warp;
    dev.launch("compute 2", dev.blocks_for(threads, bs), bs, [&](const ThreadCtx& ctx) {
      kernels::compute_group(ctx, SimReader{dg, ctx}, worklist, 0, num_mid, warp,
                             ctx.global_id() / warp, ctx.lane(), opts.jump,
                             SimParentOps(parent, ctx));
    });
  }

  if (num_high > 0) {
    dev.launch("compute 3", std::max(1u, std::min<std::uint32_t>(num_high, spec.num_sms * 8)),
               bs, [&](const ThreadCtx& ctx) {
                 kernels::compute_group(ctx, SimReader{dg, ctx}, worklist, bottom, num_high,
                                        bs, ctx.block(), ctx.thread_in_block(), opts.jump,
                                        SimParentOps(parent, ctx));
               });
  }

  dev.launch("finalization", dev.blocks_for(n, bs), bs, [&](const ThreadCtx& ctx) {
    kernels::finalize(ctx, n, opts.finalize, SimParentOps(parent, ctx));
  });

  result.labels = parent.host();
  result.time_ms = dev.total_time_ms();
  result.kernels = dev.history();
  result.time_by_kernel = dev.time_by_kernel();
  result.memory = dev.counters();
  return result;
}

}  // namespace ecl::gpusim
