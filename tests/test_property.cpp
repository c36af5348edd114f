// Property-based cross-implementation tests: for a sweep of random graphs
// (varying family, size, density and seed), EVERY implementation in the
// repository — serial, OpenMP, virtual-GPU, and all comparators — must
// induce exactly the reference partition. This is the strongest end-to-end
// invariant the paper's methodology implies (§4: all codes verified, CC
// counts exact).
#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "core/ecl_cc.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "gpusim/gpu_cc.h"
#include "test_util.h"

namespace ecl {
namespace {

/// Deterministically derives a random graph from the sweep index, cycling
/// through families and sizes.
Graph graph_for_seed(int seed) {
  const auto u = static_cast<std::uint64_t>(seed);
  switch (seed % 7) {
    case 0:
      return gen_uniform_random(500 + 700 * static_cast<vertex_t>(seed), 2000 + 100 * static_cast<vertex_t>(seed), u);
    case 1:
      return gen_rmat(9 + seed % 4, 4 + seed % 8, RmatParams{}, u);
    case 2:
      return gen_road_network(1000 + 800 * static_cast<vertex_t>(seed), u);
    case 3:
      return gen_preferential_attachment(800 + 300 * static_cast<vertex_t>(seed),
                                         1 + seed % 6, u);
    case 4:
      return gen_web_graph(1500 + 400 * static_cast<vertex_t>(seed), u);
    case 5:
      return gen_citation(1200 + 350 * static_cast<vertex_t>(seed), 2 + seed % 5,
                          0.1 * (seed % 10), u);
    default:
      return gen_small_world(900 + 250 * static_cast<vertex_t>(seed), 1 + seed % 4,
                             0.05 * (seed % 8), u);
  }
}

class PropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(PropertySweep, AllImplementationsInduceReferencePartition) {
  const Graph g = graph_for_seed(GetParam());
  const auto reference = reference_components(g);

  // Core implementations produce canonical labels: exact equality.
  EXPECT_EQ(ecl_cc_serial(g), reference);
  EXPECT_EQ(ecl_cc_omp(g), reference);
  EXPECT_EQ(gpusim::ecl_cc_gpu(g, gpusim::titanx_like()).labels, reference);

  // Every registered comparator induces the same partition.
  for (const auto& code : baselines::parallel_cpu_codes()) {
    if (!code.supports(g)) continue;
    EXPECT_TRUE(same_partition(code.run(g, 0), reference)) << code.name;
  }
  for (const auto& code : baselines::serial_cpu_codes()) {
    EXPECT_TRUE(same_partition(code.run(g, 1), reference)) << code.name;
  }
  for (const auto& code : gpusim::gpu_codes()) {
    EXPECT_TRUE(same_partition(code.run(g, gpusim::titanx_like()).labels, reference))
        << code.name;
  }
}

TEST_P(PropertySweep, LabelInvariants) {
  const Graph g = graph_for_seed(GetParam());
  const auto labels = ecl_cc_omp(g);
  const auto check = verify_labels(g, labels);
  EXPECT_TRUE(check.ok) << check.reason;
  // Each label is the minimum of its component: no vertex has an ID lower
  // than its label.
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(labels[v], v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep, ::testing::Range(0, 21));

}  // namespace
}  // namespace ecl
