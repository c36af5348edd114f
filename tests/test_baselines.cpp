// Correctness tests for every reimplemented comparator: each must produce
// the reference partition on the full graph fixture, exactly as the paper
// validates ("for all codes, we made sure that the number of CCs is
// correct", §4) — we additionally check the whole partition.
#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "baselines/registry.h"
#include "core/verify.h"
#include "graph/stats.h"
#include "test_util.h"

namespace ecl {
namespace {

using testing::NamedGraph;
using testing::correctness_graphs;

// ---------------------------------------------------------------------------
// Registry-driven sweep: every registered code x every fixture graph.

class ParallelCodeTest : public ::testing::TestWithParam<int> {
 protected:
  static const baselines::CcCode& code() {
    return baselines::parallel_cpu_codes()[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(ParallelCodeTest, MatchesReferencePartition) {
  for (const auto& [name, g] : correctness_graphs()) {
    if (!code().supports(g)) continue;
    const auto labels = code().run(g, 0);
    const auto reference = reference_components(g);
    EXPECT_TRUE(same_partition(labels, reference)) << code().name << " on " << name;
    EXPECT_EQ(count_labels(labels), count_labels(reference)) << code().name << " on " << name;
  }
}

TEST_P(ParallelCodeTest, OversubscribedThreadsStillCorrect) {
  for (const auto& [name, g] : correctness_graphs()) {
    if (!code().supports(g)) continue;
    const auto labels = code().run(g, 8);
    EXPECT_TRUE(same_partition(labels, reference_components(g)))
        << code().name << " on " << name;
  }
}

std::string parallel_code_name(const ::testing::TestParamInfo<int>& inf) {
  std::string name = baselines::parallel_cpu_codes()[static_cast<std::size_t>(inf.param)].name;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllParallelCodes, ParallelCodeTest,
                         ::testing::Range(0, static_cast<int>(
                                                 baselines::parallel_cpu_codes().size())),
                         parallel_code_name);

class SerialCodeTest : public ::testing::TestWithParam<int> {
 protected:
  static const baselines::CcCode& code() {
    return baselines::serial_cpu_codes()[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(SerialCodeTest, MatchesReferencePartition) {
  for (const auto& [name, g] : correctness_graphs()) {
    const auto labels = code().run(g, 1);
    EXPECT_TRUE(same_partition(labels, reference_components(g)))
        << code().name << " on " << name;
  }
}

std::string serial_code_name(const ::testing::TestParamInfo<int>& inf) {
  std::string name = baselines::serial_cpu_codes()[static_cast<std::size_t>(inf.param)].name;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSerialCodes, SerialCodeTest,
                         ::testing::Range(0, static_cast<int>(
                                                 baselines::serial_cpu_codes().size())),
                         serial_code_name);

// ---------------------------------------------------------------------------
// Algorithm-specific behaviours.

TEST(Crono, ReportsUnsupportedForHighDegreeGraphs) {
  // A star with 200k leaves has dmax ~ n, so the n x dmax matrix blows the
  // limit — the "n/a" cases in the paper's Tables 7/8.
  const Graph star = gen_star(200'000);
  EXPECT_FALSE(baselines::crono_supports(star, 64 << 20));
  EXPECT_TRUE(baselines::make_crono_runner(star, 1, 64 << 20)().empty());
}

TEST(Crono, SupportsLowDegreeGraphs) {
  const Graph grid = gen_grid2d(50, 50);
  EXPECT_TRUE(baselines::crono_supports(grid));
  EXPECT_FALSE(baselines::make_crono_runner(grid)().empty());
}

TEST(Multistep, HandlesGraphWhereBfsSwallowsEverything) {
  const Graph g = gen_star(5000);
  const auto labels = baselines::multistep(g);
  EXPECT_TRUE(same_partition(labels, reference_components(g)));
}

TEST(Multistep, HandlesManySmallComponentsViaSerialTail) {
  const Graph g = gen_clique_forest(100, 5);  // 500 vertices < serial cutoff
  const auto labels = baselines::multistep(g);
  EXPECT_TRUE(same_partition(labels, reference_components(g)));
}

TEST(Multistep, HandlesManyComponentsViaLabelProp) {
  const Graph g = gen_clique_forest(3000, 4);  // 12000 vertices > cutoff
  const auto labels = baselines::multistep(g);
  EXPECT_TRUE(same_partition(labels, reference_components(g)));
}

TEST(NdHybrid, DeepRecursionOnPath) {
  // A long path forces several contraction rounds.
  const Graph g = gen_path(20000);
  const auto labels = baselines::ndhybrid(g);
  EXPECT_EQ(count_labels(labels), 1u);
  EXPECT_TRUE(same_partition(labels, reference_components(g)));
}

TEST(SerialLibs, AllProduceCanonicalMinLabels) {
  // These three label components by the smallest vertex (by construction of
  // their sweeps), so they must agree with the reference exactly.
  const Graph g = gen_uniform_random(5000, 6000, 77);
  const auto reference = reference_components(g);
  EXPECT_EQ(baselines::make_boost_runner(g)(), reference);
  EXPECT_EQ(baselines::make_igraph_runner(g)(), reference);
  EXPECT_EQ(baselines::make_lemon_runner(g)(), reference);
  EXPECT_EQ(baselines::galois_serial(g), reference);
}

TEST(Registry, NamesMatchPaperTables) {
  const auto& par = baselines::parallel_cpu_codes();
  ASSERT_EQ(par.size(), 7u);
  EXPECT_EQ(par[0].name, "ECL-CComp");
  const auto& ser = baselines::serial_cpu_codes();
  ASSERT_EQ(ser.size(), 5u);
  EXPECT_EQ(ser[0].name, "ECL-CCser");
}

TEST(LabelProp, EmptyAndSingletonGraphs) {
  EXPECT_TRUE(baselines::label_prop(Graph()).empty());
  const auto labels = baselines::label_prop(gen_isolated(3));
  EXPECT_EQ(labels, (std::vector<vertex_t>{0, 1, 2}));
}

TEST(BfsCc, LabelsAreSourceVertices) {
  const Graph g = gen_clique_forest(4, 3);
  const auto labels = baselines::bfs_cc(g);
  for (vertex_t v = 0; v < 12; ++v) EXPECT_EQ(labels[v], (v / 3) * 3);
}

}  // namespace
}  // namespace ecl
