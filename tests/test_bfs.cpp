// Tests for the direction-optimizing BFS substrate.
#include <gtest/gtest.h>

#include <queue>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "test_util.h"

namespace ecl {
namespace {

/// Naive serial reference: `label_value` on every vertex a BFS from `source`
/// reaches, kInvalidVertex elsewhere.
std::vector<vertex_t> reference_labels(const Graph& g, vertex_t source, vertex_t label_value) {
  std::vector<vertex_t> label(g.num_vertices(), kInvalidVertex);
  label[source] = label_value;
  std::queue<vertex_t> q;
  q.push(source);
  while (!q.empty()) {
    const vertex_t v = q.front();
    q.pop();
    for (const vertex_t u : g.neighbors(v)) {
      if (label[u] == kInvalidVertex) {
        label[u] = label_value;
        q.push(u);
      }
    }
  }
  return label;
}

/// bfs_label from `source` on a fresh label array.
std::vector<vertex_t> labels_from(const Graph& g, vertex_t source, const BfsOptions& opts = {}) {
  std::vector<vertex_t> label(g.num_vertices(), kInvalidVertex);
  (void)bfs_label(g, source, source, label, opts);
  return label;
}

TEST(Bfs, PathGraphDistances) {
  const Graph g = gen_path(100);
  std::vector<vertex_t> label(g.num_vertices(), kInvalidVertex);
  EXPECT_EQ(bfs_label(g, 0, 0, label), 100u);
  for (vertex_t v = 0; v < 100; ++v) EXPECT_EQ(label[v], 0u);
}

TEST(Bfs, StarGraphDistances) {
  const Graph g = gen_star(1000);
  EXPECT_EQ(labels_from(g, 0), reference_labels(g, 0, 0));
  // From a leaf the hub is one hop away and every other leaf two.
  std::vector<vertex_t> label(g.num_vertices(), kInvalidVertex);
  EXPECT_EQ(bfs_label(g, 7, 7, label), 1000u);
  EXPECT_EQ(label[0], 7u);
  EXPECT_EQ(label[8], 7u);
}

TEST(Bfs, UnreachableVerticesStayMarked) {
  const Graph g = gen_clique_forest(3, 5);
  std::vector<vertex_t> label(g.num_vertices(), kInvalidVertex);
  EXPECT_EQ(bfs_label(g, 0, 0, label), 5u);
  for (vertex_t v = 5; v < 15; ++v) EXPECT_EQ(label[v], kInvalidVertex);
}

TEST(Bfs, MatchesReferenceOnVariedGraphs) {
  const Graph graphs[] = {
      gen_grid2d(40, 30),
      gen_kronecker(11, 12, 3),
      gen_road_network(5000, 4),
      gen_web_graph(4000, 9),
  };
  for (const auto& g : graphs) EXPECT_EQ(labels_from(g, 0), reference_labels(g, 0, 0));
}

TEST(Bfs, BottomUpTriggersOnDenseGraphs) {
  // A complete graph saturates the frontier at once, so the optimizer takes
  // the bottom-up sweep; every vertex must still be labeled.
  const Graph g = gen_complete(300);
  std::vector<vertex_t> label(g.num_vertices(), kInvalidVertex);
  EXPECT_EQ(bfs_label(g, 0, 0, label), 300u);
  for (vertex_t v = 0; v < 300; ++v) EXPECT_EQ(label[v], 0u);
}

TEST(Bfs, TopDownOnlyOnLongPaths) {
  // A path's frontier is one vertex: the optimizer stays top-down for all
  // 2500 levels on either side of the middle source.
  const Graph g = gen_path(5000);
  std::vector<vertex_t> label(g.num_vertices(), kInvalidVertex);
  EXPECT_EQ(bfs_label(g, 2500, 2500, label), 5000u);
  EXPECT_EQ(label, reference_labels(g, 2500, 2500));
}

TEST(Bfs, ForcedBottomUpStillCorrect) {
  // The switch threshold is (edges / alpha): a tiny alpha makes it
  // unreachable (pure top-down), a huge alpha makes it immediate.
  BfsOptions opts;
  opts.alpha = 1e-9;
  const Graph g = gen_kronecker(10, 8, 5);
  const auto td = labels_from(g, 0, opts);
  opts.alpha = 1e18;
  opts.beta = 1e18;
  const auto bu = labels_from(g, 0, opts);
  EXPECT_EQ(td, bu);
  EXPECT_EQ(td, reference_labels(g, 0, 0));
}

TEST(Bfs, OversubscribedThreadsCorrect) {
  BfsOptions opts;
  opts.num_threads = 8;
  const Graph g = gen_uniform_random(20000, 60000, 6);
  EXPECT_EQ(labels_from(g, 0, opts), reference_labels(g, 0, 0));
}

TEST(BfsLabel, LabelsOnlyReachedComponent) {
  const Graph g = gen_clique_forest(4, 6);
  std::vector<vertex_t> label(g.num_vertices(), kInvalidVertex);
  const vertex_t reached = bfs_label(g, 6, 6, label);
  EXPECT_EQ(reached, 6u);
  for (vertex_t v = 6; v < 12; ++v) EXPECT_EQ(label[v], 6u);
  for (vertex_t v = 0; v < 6; ++v) EXPECT_EQ(label[v], kInvalidVertex);
}

TEST(BfsLabel, SkipsVisitedSource) {
  const Graph g = gen_path(10);
  std::vector<vertex_t> label(10, kInvalidVertex);
  EXPECT_EQ(bfs_label(g, 0, 0, label), 10u);
  EXPECT_EQ(bfs_label(g, 5, 5, label), 0u);  // already labeled
  EXPECT_EQ(label[5], 0u);
}

}  // namespace
}  // namespace ecl
