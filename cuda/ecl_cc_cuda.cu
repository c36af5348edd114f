// ECL-CC for real NVIDIA GPUs (paper §3). The five kernels run the bodies
// in core/kernels.h, the same ones src/gpusim/ecl_cc_gpu.cpp simulates;
// this file holds only the CUDA side of them: the thread context, the
// parent array's atomicCAS, device memory, the worklist cursors and the
// launches. It runs Init3, Jump4 and Fini3 with the 16/352 degree split.
//
// nvcc compiles it with -DECLCC_ENABLE_CUDA=ON (cuda/README.md). Without
// nvcc, tests/cuda_host_shim.h supplies the CUDA names it uses, so a host
// compiler can build and run it too.
#ifdef __CUDACC__
#include <cuda_runtime.h>
#define ECL_LAUNCH(kernel, grid, block, ...) kernel<<<(grid), (block)>>>(__VA_ARGS__)
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/kernels.h"
#include "cuda/ecl_cc_cuda.h"
#include "graph/graph.h"

namespace ecl::cuda {

namespace {

constexpr int kBlockSize = 256;
constexpr vertex_t kThreadDegreeLimit = 16;
constexpr vertex_t kWarpDegreeLimit = 352;

#define ECL_CUDA_CHECK(call)                                                  \
  do {                                                                        \
    const cudaError_t status = (call);                                        \
    if (status != cudaSuccess) {                                              \
      std::fprintf(stderr, "CUDA error %s at %s:%d\n",                        \
                   cudaGetErrorString(status), __FILE__, __LINE__);           \
      std::abort();                                                           \
    }                                                                         \
  } while (0)

/// The calling thread's place in the grid, from CUDA's index builtins.
struct CudaCtx {
  __device__ std::uint64_t global_id() const { return blockIdx.x * blockDim.x + threadIdx.x; }
  __device__ std::uint64_t grid_size() const { return gridDim.x * blockDim.x; }
};

/// The CSR in device memory.
struct CudaReader {
  const edge_t* offsets;
  const vertex_t* adjacency;

  __device__ edge_t offset(vertex_t v) const { return offsets[v]; }
  __device__ vertex_t neighbor(edge_t e) const { return adjacency[e]; }
};

/// The parent array as the paper's kernels access it: plain loads and
/// stores, and atomicCAS for the hook.
struct CudaParentOps {
  vertex_t* parent;

  __device__ vertex_t load(vertex_t i) const { return parent[i]; }
  __device__ void store(vertex_t i, vertex_t value) { parent[i] = value; }
  __device__ vertex_t cas(vertex_t i, vertex_t expected, vertex_t desired) {
    return atomicCAS(&parent[i], expected, desired);
  }
};
static_assert(ParentOps<CudaParentOps>);

/// The double-sided worklist: size n, compute-2 vertices pushed from the
/// top (cursors[0] counts up), compute-3 vertices from the bottom
/// (cursors[1] counts down from n).
struct CudaWorklist {
  vertex_t* slots;
  vertex_t* cursors;

  __device__ void push_top(const CudaCtx& /*ctx*/, vertex_t v) const {
    slots[atomicAdd(&cursors[0], 1u)] = v;
  }
  __device__ void push_bottom(const CudaCtx& /*ctx*/, vertex_t v) const {
    slots[atomicSub(&cursors[1], 1u) - 1] = v;
  }
  __device__ vertex_t read(const CudaCtx& /*ctx*/, vertex_t i) const { return slots[i]; }
};

__global__ void init_kernel(CudaReader g, vertex_t n, CudaParentOps parent) {
  kernels::init(CudaCtx{}, g, n, InitPolicy::kFirstSmallerNeighbor, parent);
}

__global__ void compute1_kernel(CudaReader g, vertex_t n, CudaParentOps parent,
                                CudaWorklist worklist) {
  kernels::compute_thread(CudaCtx{}, g, worklist, n, kThreadDegreeLimit, kWarpDegreeLimit,
                          JumpPolicy::kIntermediate, parent);
}

__global__ void compute2_kernel(CudaReader g, vertex_t num_mid, std::uint32_t warp,
                                CudaParentOps parent, CudaWorklist worklist) {
  const CudaCtx ctx{};
  kernels::compute_group(ctx, g, worklist, 0, num_mid, warp, ctx.global_id() / warp,
                         threadIdx.x % warp, JumpPolicy::kIntermediate, parent);
}

__global__ void compute3_kernel(CudaReader g, vertex_t bottom, vertex_t num_high,
                                CudaParentOps parent, CudaWorklist worklist) {
  kernels::compute_group(CudaCtx{}, g, worklist, bottom, num_high, blockDim.x, blockIdx.x,
                         threadIdx.x, JumpPolicy::kIntermediate, parent);
}

__global__ void finalize_kernel(vertex_t n, CudaParentOps parent) {
  kernels::finalize(CudaCtx{}, n, FinalizePolicy::kSingle, parent);
}

/// Blocks that cover `work` threads, capped at `cap` (the kernels'
/// grid-stride loops take the rest).
int grid_for(unsigned long long work, int cap) {
  return static_cast<int>(std::min<unsigned long long>((work + kBlockSize - 1) / kBlockSize,
                                                       static_cast<unsigned long long>(cap)));
}

}  // namespace

/// Computes the connected-components labeling of `g` on the current CUDA
/// device. Matches ecl_cc_serial / ecl_cc_omp label-for-label (component
/// minima). Transfers are synchronous; kernel time can be measured by the
/// caller with CUDA events around this call minus the copies, matching the
/// paper's methodology (§4).
std::vector<vertex_t> ecl_cc_cuda(const Graph& g) {
  const vertex_t n = g.num_vertices();
  std::vector<vertex_t> labels(n);
  if (n == 0) return labels;

  int device = 0;
  cudaDeviceProp prop{};
  ECL_CUDA_CHECK(cudaGetDevice(&device));
  ECL_CUDA_CHECK(cudaGetDeviceProperties(&prop, device));
  const int blocks_cap = prop.multiProcessorCount * 32;

  edge_t* d_offsets = nullptr;
  vertex_t* d_adjacency = nullptr;
  vertex_t* d_parent = nullptr;
  vertex_t* d_worklist = nullptr;
  vertex_t* d_cursors = nullptr;  // [0] = top, [1] = bottom
  ECL_CUDA_CHECK(cudaMalloc(&d_offsets, (n + 1ULL) * sizeof(edge_t)));
  ECL_CUDA_CHECK(
      cudaMalloc(&d_adjacency, std::max<std::size_t>(1, g.num_edges()) * sizeof(vertex_t)));
  ECL_CUDA_CHECK(cudaMalloc(&d_parent, n * sizeof(vertex_t)));
  ECL_CUDA_CHECK(cudaMalloc(&d_worklist, n * sizeof(vertex_t)));
  ECL_CUDA_CHECK(cudaMalloc(&d_cursors, 2 * sizeof(vertex_t)));

  ECL_CUDA_CHECK(cudaMemcpy(d_offsets, g.offsets().data(), (n + 1ULL) * sizeof(edge_t),
                            cudaMemcpyHostToDevice));
  ECL_CUDA_CHECK(cudaMemcpy(d_adjacency, g.adjacency().data(),
                            g.num_edges() * sizeof(vertex_t), cudaMemcpyHostToDevice));
  const vertex_t cursors_init[2] = {0, n};
  ECL_CUDA_CHECK(
      cudaMemcpy(d_cursors, cursors_init, sizeof(cursors_init), cudaMemcpyHostToDevice));

  const CudaReader graph{d_offsets, d_adjacency};
  const CudaParentOps parent{d_parent};
  const CudaWorklist worklist{d_worklist, d_cursors};
  ECL_LAUNCH(init_kernel, grid_for(n, blocks_cap), kBlockSize, graph, n, parent);
  ECL_LAUNCH(compute1_kernel, grid_for(n, blocks_cap), kBlockSize, graph, n, parent, worklist);

  vertex_t cursors[2];
  ECL_CUDA_CHECK(cudaMemcpy(cursors, d_cursors, sizeof(cursors), cudaMemcpyDeviceToHost));
  const vertex_t num_mid = cursors[0];
  const vertex_t bottom = cursors[1];
  const vertex_t num_high = n - bottom;

  if (num_mid > 0) {
    const auto warp = static_cast<std::uint32_t>(prop.warpSize);
    const int blocks = grid_for(static_cast<unsigned long long>(num_mid) * warp, blocks_cap);
    ECL_LAUNCH(compute2_kernel, blocks, kBlockSize, graph, num_mid, warp, parent, worklist);
  }
  if (num_high > 0) {
    const auto blocks = static_cast<int>(
        std::min<unsigned long long>(num_high, prop.multiProcessorCount * 8));
    ECL_LAUNCH(compute3_kernel, blocks, kBlockSize, graph, bottom, num_high, parent, worklist);
  }
  ECL_LAUNCH(finalize_kernel, grid_for(n, blocks_cap), kBlockSize, n, parent);
  ECL_CUDA_CHECK(cudaGetLastError());

  ECL_CUDA_CHECK(
      cudaMemcpy(labels.data(), d_parent, n * sizeof(vertex_t), cudaMemcpyDeviceToHost));
  ECL_CUDA_CHECK(cudaFree(d_offsets));
  ECL_CUDA_CHECK(cudaFree(d_adjacency));
  ECL_CUDA_CHECK(cudaFree(d_parent));
  ECL_CUDA_CHECK(cudaFree(d_worklist));
  ECL_CUDA_CHECK(cudaFree(d_cursors));
  return labels;
}

}  // namespace ecl::cuda
