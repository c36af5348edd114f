// The CUDA backend (cuda/ecl_cc_cuda.cu) built by the host compiler over
// cuda_host_shim.h: its host code, launch geometry and kernel bodies run
// block by block and thread by thread, and its labels must equal
// ecl_cc_serial's. This checks no CUDA memory-model behaviour; on a GPU,
// the ecl_cc_cuda tool verifies its own labels the same way.
#include "cuda_host_shim.h"

#include "cuda/ecl_cc_cuda.cu"

#include <gtest/gtest.h>

#include "core/ecl_cc.h"
#include "test_util.h"

namespace ecl::cuda {
namespace {

TEST(CudaShim, MatchesSerialOnCorrectnessGraphs) {
  for (const auto& [name, g] : ecl::testing::correctness_graphs()) {
    EXPECT_EQ(ecl_cc_cuda(g), ecl_cc_serial(g)) << name;
  }
}

TEST(CudaShim, MatchesSerialWhenEveryComputeKernelRuns) {
  // Only compute 2 and compute 3 process the two hubs' stars.
  const Graph g = ecl::testing::mixed_degree_graph();
  EXPECT_EQ(ecl_cc_cuda(g), ecl_cc_serial(g));
}

TEST(CudaShim, MatchesSerialThroughGridStrideLoops) {
  // 16384 vertices against the shim's 8192-thread grid, and more
  // high-degree vertices than compute 3's eight blocks.
  const Graph g = gen_kronecker(14, 16, 77);
  EXPECT_EQ(ecl_cc_cuda(g), ecl_cc_serial(g));
}

}  // namespace
}  // namespace ecl::cuda
