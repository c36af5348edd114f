// Correctness tests for ECL-CC (serial and OpenMP) across every policy
// combination and a wide range of graph shapes, verified against the serial
// BFS reference — the paper's own validation protocol (§4).
#include <gtest/gtest.h>

#include <omp.h>

#include <tuple>

#include "core/ecl_cc.h"
#include "core/verify.h"
#include "graph/stats.h"
#include "test_util.h"

namespace ecl {
namespace {

using testing::NamedGraph;
using testing::correctness_graphs;
using testing::stress_graphs;

// ---------------------------------------------------------------------------
// Every graph in the fixture, default (published) configuration.

class EclCcGraphTest : public ::testing::TestWithParam<int> {
 protected:
  static const NamedGraph& graph() { return graphs()[static_cast<std::size_t>(GetParam())]; }
  static const std::vector<NamedGraph>& graphs() {
    static const auto gs = correctness_graphs();
    return gs;
  }
};

TEST_P(EclCcGraphTest, SerialMatchesReference) {
  const auto& [name, g] = graph();
  const auto labels = ecl_cc_serial(g);
  const auto result = verify_labels(g, labels);
  EXPECT_TRUE(result.ok) << name << ": " << result.reason;
  // ECL-CC labels are canonical (component-minimum), so they must equal the
  // reference exactly, not just up to bijection.
  EXPECT_EQ(labels, reference_components(g)) << name;
}

TEST_P(EclCcGraphTest, OmpMatchesReference) {
  const auto& [name, g] = graph();
  const auto labels = ecl_cc_omp(g);
  const auto result = verify_labels(g, labels);
  EXPECT_TRUE(result.ok) << name << ": " << result.reason;
  EXPECT_EQ(labels, reference_components(g)) << name;
}

TEST_P(EclCcGraphTest, OmpOversubscribedMatchesReference) {
  const auto& [name, g] = graph();
  EclOptions opts;
  opts.num_threads = 4 * omp_get_max_threads();  // shake out races
  const auto labels = ecl_cc_omp(g, opts);
  EXPECT_EQ(labels, reference_components(g)) << name;
}

std::string graph_case_name(const ::testing::TestParamInfo<int>& inf) {
  return correctness_graphs()[static_cast<std::size_t>(inf.param)].name;
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, EclCcGraphTest,
                         ::testing::Range(0, static_cast<int>(correctness_graphs().size())),
                         graph_case_name);

// ---------------------------------------------------------------------------
// Every (init, jump, finalize) policy combination on a handful of graphs.

using PolicyTuple = std::tuple<InitPolicy, JumpPolicy, FinalizePolicy>;

class EclCcPolicyTest : public ::testing::TestWithParam<PolicyTuple> {};

TEST_P(EclCcPolicyTest, AllPoliciesProduceCorrectLabels) {
  const auto [init, jump, finalize] = GetParam();
  EclOptions opts;
  opts.init = init;
  opts.jump = jump;
  opts.finalize = finalize;
  for (const auto& [name, g] : correctness_graphs()) {
    const auto serial = ecl_cc_serial(g, opts);
    EXPECT_EQ(serial, reference_components(g)) << name << " serial";
    const auto omp = ecl_cc_omp(g, opts);
    EXPECT_EQ(omp, reference_components(g)) << name << " omp";
  }
}

std::string policy_case_name(const ::testing::TestParamInfo<PolicyTuple>& inf) {
  return "Init" + std::to_string(static_cast<int>(std::get<0>(inf.param))) + "Jump" +
         std::to_string(static_cast<int>(std::get<1>(inf.param))) + "Fini" +
         std::to_string(static_cast<int>(std::get<2>(inf.param)));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, EclCcPolicyTest,
    ::testing::Combine(
        ::testing::Values(InitPolicy::kSelf, InitPolicy::kMinNeighbor,
                          InitPolicy::kFirstSmallerNeighbor),
        ::testing::Values(JumpPolicy::kMultiple, JumpPolicy::kSingle, JumpPolicy::kNone,
                          JumpPolicy::kIntermediate),
        ::testing::Values(FinalizePolicy::kIntermediate, FinalizePolicy::kMultiple,
                          FinalizePolicy::kSingle)),
    policy_case_name);

// ---------------------------------------------------------------------------
// Stress and behavior tests.

TEST(EclCc, StressGraphsSerialAndOmp) {
  for (const auto& [name, g] : stress_graphs()) {
    const auto reference = reference_components(g);
    EXPECT_EQ(ecl_cc_serial(g), reference) << name;
    EXPECT_EQ(ecl_cc_omp(g), reference) << name;
  }
}

TEST(EclCc, PhaseTimesAreReported) {
  const Graph g = gen_grid2d(100, 100);
  PhaseTimes times;
  (void)ecl_cc_serial(g, {}, &times);
  EXPECT_GE(times.init_ms, 0.0);
  EXPECT_GE(times.compute_ms, 0.0);
  EXPECT_GT(times.total_ms(), 0.0);
}

TEST(EclCc, LabelsAreComponentMinima) {
  const Graph g = gen_clique_forest(10, 9);
  const auto labels = ecl_cc_serial(g);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(labels[v], (v / 9) * 9);
  }
}

TEST(EclCc, ComponentCountMatchesStats) {
  for (const auto& [name, g] : correctness_graphs()) {
    const auto labels = ecl_cc_serial(g);
    EXPECT_EQ(count_labels(labels), count_components(g)) << name;
  }
}

TEST(EclCc, PathLengthReportIsSane) {
  const auto report = ecl_cc_path_lengths(gen_grid2d(200, 200));
  EXPECT_GT(report.num_finds, 0u);
  EXPECT_GE(report.average_length, 0.0);
  EXPECT_GE(static_cast<double>(report.maximum_length), report.average_length);
}

TEST(EclCc, NoJumpingYieldsLongerPathsThanHalving) {
  // The motivation for intermediate pointer jumping (paper Fig. 8 / Table 4):
  // without compression, observed paths grow much longer.
  const Graph g = gen_road_network(30000, 3);
  EclOptions no_jump;
  no_jump.jump = JumpPolicy::kNone;
  const auto without = ecl_cc_path_lengths(g, no_jump);
  const auto with = ecl_cc_path_lengths(g);
  EXPECT_GT(without.average_length, with.average_length);
}

TEST(EclCc, BucketedVariantMatchesReference) {
  for (const auto& [name, g] : correctness_graphs()) {
    EXPECT_EQ(ecl_cc_omp_bucketed(g), reference_components(g)) << name;
  }
  for (const auto& [name, g] : stress_graphs()) {
    EXPECT_EQ(ecl_cc_omp_bucketed(g), reference_components(g)) << name;
  }
}

TEST(EclCc, BucketedVariantOversubscribed) {
  EclOptions opts;
  opts.num_threads = 8;
  const Graph g = gen_kronecker(13, 16, 3);  // has all three degree classes
  EXPECT_EQ(ecl_cc_omp_bucketed(g, opts), reference_components(g));
}

TEST(EclCc, SingleThreadOmpEqualsSerial) {
  EclOptions opts;
  opts.num_threads = 1;
  for (const auto& [name, g] : correctness_graphs()) {
    EXPECT_EQ(ecl_cc_omp(g, opts), ecl_cc_serial(g)) << name;
  }
}

TEST(Verify, DetectsBadLabelings) {
  const Graph g = gen_path(4);
  auto labels = ecl_cc_serial(g);
  ASSERT_TRUE(verify_labels(g, labels).ok);

  auto split = labels;
  split[3] = 3;  // breaks edge consistency
  EXPECT_FALSE(verify_labels(g, split).ok);

  const Graph two = gen_clique_forest(2, 3);
  std::vector<vertex_t> merged(two.num_vertices(), 0);
  EXPECT_FALSE(verify_labels(two, merged).ok);  // merges distinct components

  std::vector<vertex_t> out_of_range(g.num_vertices(), 99);
  EXPECT_FALSE(verify_labels(g, out_of_range).ok);

  std::vector<vertex_t> not_fixed_point{1, 2, 3, 3};
  EXPECT_FALSE(verify_labels(g, not_fixed_point).ok);
}

TEST(Verify, SamePartitionIgnoresRepresentativeChoice) {
  const std::vector<vertex_t> a{0, 0, 2, 2};
  const std::vector<vertex_t> b{1, 1, 3, 3};
  const std::vector<vertex_t> c{0, 0, 0, 2};
  EXPECT_TRUE(same_partition(a, b));
  EXPECT_FALSE(same_partition(a, c));
}

}  // namespace
}  // namespace ecl
