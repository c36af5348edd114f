// Tests for the compressed graph representation and ECL-CC on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/compressed_cc.h"
#include "graph/compressed.h"
#include "graph/stats.h"
#include "test_util.h"

namespace ecl {
namespace {

using testing::correctness_graphs;
using testing::with_descending_lists;

/// The plain CSR arrays `cg` decodes to.
std::pair<std::vector<edge_t>, std::vector<vertex_t>> decode(const CompressedGraph& cg) {
  std::vector<edge_t> offsets{0};
  std::vector<vertex_t> adjacency;
  for (vertex_t v = 0; v < cg.num_vertices(); ++v) {
    for (const vertex_t u : cg.neighbors(v)) adjacency.push_back(u);
    offsets.push_back(static_cast<edge_t>(adjacency.size()));
  }
  return {std::move(offsets), std::move(adjacency)};
}

TEST(Compressed, RoundTripsEveryFixtureGraph) {
  for (const auto& [name, g] : correctness_graphs()) {
    const auto cg = CompressedGraph::compress(g);
    EXPECT_EQ(cg.num_vertices(), g.num_vertices()) << name;
    EXPECT_EQ(cg.num_edges(), g.num_edges()) << name;
    const auto [offsets, adjacency] = decode(cg);
    EXPECT_TRUE(std::ranges::equal(g.offsets(), offsets)) << name;
    EXPECT_TRUE(std::ranges::equal(g.adjacency(), adjacency)) << name;
  }
}

TEST(Compressed, NeighborIterationMatchesPlain) {
  const Graph g = gen_kronecker(11, 12, 3);
  const auto cg = CompressedGraph::compress(g);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    std::vector<vertex_t> decoded;
    for (const vertex_t u : cg.neighbors(v)) decoded.push_back(u);
    const auto plain = g.neighbors(v);
    ASSERT_EQ(decoded.size(), plain.size()) << v;
    EXPECT_TRUE(std::equal(plain.begin(), plain.end(), decoded.begin())) << v;
    EXPECT_EQ(cg.degree(v), plain.size()) << v;
  }
}

TEST(Compressed, SavesMemoryOnRealisticGraphs) {
  // Road and grid graphs have small deltas: compression must beat the
  // plain 4-byte-per-edge adjacency array comfortably.
  for (const auto* name : {"road", "grid"}) {
    const Graph g = std::string(name) == "road" ? gen_road_network(50000, 3)
                                                : gen_grid2d(220, 220);
    const auto cg = CompressedGraph::compress(g);
    const std::size_t plain = g.memory_bytes();
    EXPECT_LT(cg.memory_bytes(), plain) << name;
  }
}

TEST(Compressed, EmptyAndEdgeless) {
  const auto empty = CompressedGraph::compress(Graph());
  EXPECT_EQ(empty.num_vertices(), 0u);
  const auto isolated = CompressedGraph::compress(gen_isolated(10));
  EXPECT_EQ(isolated.num_vertices(), 10u);
  EXPECT_EQ(isolated.num_edges(), 0u);
  EXPECT_EQ(isolated.degree(5), 0u);
  EXPECT_TRUE(decode(isolated).second.empty());
}

TEST(Compressed, RejectsUnsortedAdjacency) {
  const Graph g =
      with_descending_lists(build_graph(5, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}}));
  EXPECT_THROW((void)CompressedGraph::compress(g), std::invalid_argument);
}

TEST(CompressedCc, SerialMatchesReferenceOnAllFixtures) {
  for (const auto& [name, g] : correctness_graphs()) {
    const auto cg = CompressedGraph::compress(g);
    EXPECT_EQ(ecl_cc_serial(cg), reference_components(g)) << name;
  }
}

TEST(CompressedCc, PolicyVariantsWork) {
  const Graph g = gen_web_graph(3000, 5);
  const auto cg = CompressedGraph::compress(g);
  const auto reference = reference_components(g);
  for (const auto jump : {JumpPolicy::kMultiple, JumpPolicy::kSingle, JumpPolicy::kNone,
                          JumpPolicy::kIntermediate}) {
    EclOptions opts;
    opts.jump = jump;
    EXPECT_EQ(ecl_cc_serial(cg, opts), reference) << static_cast<int>(jump);
  }
}

}  // namespace
}  // namespace ecl
