// Unit tests for the CSR graph, the builder's input conditioning, and
// graph statistics.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/stats.h"
#include "test_util.h"

namespace ecl {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.empty());
}

TEST(Builder, SymmetrizesEdges) {
  const Graph g = build_graph(3, std::vector<Edge>{{0, 1}});
  EXPECT_EQ(g.num_edges(), 2u);  // both directions present
  ASSERT_EQ(g.degree(0), 1u);
  ASSERT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.neighbors(1)[0], 0u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Builder, RemovesSelfLoops) {
  const Graph g = build_graph(2, std::vector<Edge>{{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Builder, DeduplicatesParallelEdges) {
  const Graph g = build_graph(2, std::vector<Edge>{{0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Builder, SortsAdjacencyLists) {
  const Graph g = build_graph(5, std::vector<Edge>{{2, 4}, {2, 0}, {2, 3}, {2, 1}});
  const auto nbrs = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(Builder, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(b.add_edge(3, 0), std::out_of_range);
}

TEST(Builder, BuildLeavesBuilderReusable) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const Graph g1 = b.build();
  EXPECT_EQ(g1.num_edges(), 2u);
  b.add_edge(2, 3);
  const Graph g2 = b.build();
  EXPECT_EQ(g2.num_edges(), 2u);
  EXPECT_EQ(g2.degree(0), 0u);
}

TEST(Builder, OffsetsAreConsistent) {
  const Graph g = gen_uniform_random(500, 2000, 7);
  const auto offs = g.offsets();
  ASSERT_EQ(offs.size(), 501u);
  EXPECT_EQ(offs.front(), 0u);
  EXPECT_EQ(offs.back(), g.num_edges());
  for (std::size_t i = 1; i < offs.size(); ++i) EXPECT_LE(offs[i - 1], offs[i]);
}

TEST(Stats, PathGraphProperties) {
  const auto s = compute_stats(gen_path(100), "path");
  EXPECT_EQ(s.num_vertices, 100u);
  EXPECT_EQ(s.num_edges, 198u);
  EXPECT_EQ(s.min_degree, 1u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_EQ(s.num_components, 1u);
}

TEST(Stats, StarDegrees) {
  const auto s = compute_stats(gen_star(101), "star");
  EXPECT_EQ(s.max_degree, 100u);
  EXPECT_EQ(s.min_degree, 1u);
  EXPECT_EQ(s.num_components, 1u);
}

TEST(Stats, IsolatedVerticesAreComponents) {
  const auto s = compute_stats(gen_isolated(42), "isolated");
  EXPECT_EQ(s.num_components, 42u);
  EXPECT_EQ(s.num_edges, 0u);
  EXPECT_EQ(s.min_degree, 0u);
}

TEST(Stats, CliqueForestComponentCount) {
  EXPECT_EQ(count_components(gen_clique_forest(25, 6)), 25u);
}

TEST(Stats, ReferenceLabelsAreComponentMinima) {
  const Graph g = gen_clique_forest(3, 4);  // components {0..3},{4..7},{8..11}
  const auto labels = reference_components(g);
  for (vertex_t v = 0; v < 12; ++v) EXPECT_EQ(labels[v], (v / 4) * 4);
}

TEST(Stats, ComponentSizesSortedDescending) {
  GraphBuilder b(10);
  b.add_edge(0, 1);
  b.add_edge(1, 2);  // component of 3
  b.add_edge(3, 4);  // component of 2
  const auto sizes = component_sizes(b.build());
  ASSERT_EQ(sizes.size(), 7u);  // 3 + 2 + five singletons
  EXPECT_EQ(sizes[0], 3u);
  EXPECT_EQ(sizes[1], 2u);
  EXPECT_EQ(sizes[2], 1u);
}

TEST(Stats, AverageDegreeMatchesEdgeCount) {
  const Graph g = gen_grid2d(10, 10);
  const auto s = compute_stats(g, "grid");
  EXPECT_DOUBLE_EQ(s.avg_degree,
                   static_cast<double>(g.num_edges()) / static_cast<double>(g.num_vertices()));
}

}  // namespace
}  // namespace ecl
