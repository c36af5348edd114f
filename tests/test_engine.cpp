// Direct unit tests of the shared phase templates (core/engine.h): the
// initialization policies of Fig. 7, the per-vertex computation of Fig. 6,
// and the finalization variants of Fig. 9 — on hand-built inputs with
// exactly known outcomes.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "graph/builder.h"
#include "test_util.h"

namespace ecl {
namespace {

using testing::with_descending_lists;

/// Star around vertex 5: neighbors of 5 are {0,1,2,3,4,6,7} (sorted CSR).
Graph star_around_5() {
  GraphBuilder b(8);
  for (vertex_t v = 0; v < 8; ++v) {
    if (v != 5) b.add_edge(5, v);
  }
  return b.build();
}

TEST(InitialParent, SelfPolicyAlwaysSelf) {
  const Graph g = star_around_5();
  for (vertex_t v = 0; v < 8; ++v) {
    EXPECT_EQ(detail::initial_parent(g, InitPolicy::kSelf, v), v);
  }
}

TEST(InitialParent, MinNeighborPicksGlobalMinimum) {
  const Graph g = star_around_5();
  EXPECT_EQ(detail::initial_parent(g, InitPolicy::kMinNeighbor, 5), 0u);
  // Leaf 3's only neighbor is 5 > 3, so it keeps its own ID.
  EXPECT_EQ(detail::initial_parent(g, InitPolicy::kMinNeighbor, 3), 3u);
  EXPECT_EQ(detail::initial_parent(g, InitPolicy::kMinNeighbor, 7), 5u);
}

TEST(InitialParent, FirstSmallerStopsAtFirstHit) {
  // Vertex 5's sorted adjacency starts at 0, so Init3 finds 0 immediately.
  const Graph g = star_around_5();
  EXPECT_EQ(detail::initial_parent(g, InitPolicy::kFirstSmallerNeighbor, 5), 0u);
  EXPECT_EQ(detail::initial_parent(g, InitPolicy::kFirstSmallerNeighbor, 3), 3u);
  EXPECT_EQ(detail::initial_parent(g, InitPolicy::kFirstSmallerNeighbor, 7), 5u);
}

TEST(InitialParent, FirstSmallerRespectsListOrder) {
  // With reversed (descending) adjacency lists, vertex 5 sees 4 first.
  GraphBuilder b(8);
  for (vertex_t v = 0; v < 8; ++v) {
    if (v != 5) b.add_edge(5, v);
  }
  const Graph g = with_descending_lists(b.build());
  EXPECT_EQ(detail::initial_parent(g, InitPolicy::kFirstSmallerNeighbor, 5), 4u);
  // Init2 is order-independent.
  EXPECT_EQ(detail::initial_parent(g, InitPolicy::kMinNeighbor, 5), 0u);
}

TEST(InitialParent, IsolatedVertexKeepsSelf) {
  const Graph g = build_graph(3, std::vector<Edge>{{0, 1}});
  for (const auto policy : {InitPolicy::kSelf, InitPolicy::kMinNeighbor,
                            InitPolicy::kFirstSmallerNeighbor}) {
    EXPECT_EQ(detail::initial_parent(g, policy, 2), 2u);
  }
}

TEST(ComputeVertex, ProcessesOnlyLowerNeighbors) {
  // Triangle 0-1-2. Processing vertex 0 must do nothing (no neighbor < 0).
  const Graph g = build_graph(3, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
  std::vector<vertex_t> parent{0, 1, 2};
  SerialParentOps ops(parent.data());
  detail::compute_vertex(g, JumpPolicy::kIntermediate, 0, ops);
  EXPECT_EQ(parent, (std::vector<vertex_t>{0, 1, 2}));
  // Processing vertex 2 hooks it (and transitively 1) toward 0.
  detail::compute_vertex(g, JumpPolicy::kIntermediate, 1, ops);
  detail::compute_vertex(g, JumpPolicy::kIntermediate, 2, ops);
  for (vertex_t v = 0; v < 3; ++v) {
    EXPECT_EQ(find_none(v, ops), 0u);
  }
}

TEST(FinalizeVertex, AllVariantsPointDirectlyAtRoot) {
  for (const auto policy : {FinalizePolicy::kIntermediate, FinalizePolicy::kMultiple,
                            FinalizePolicy::kSingle}) {
    // Chain 4 -> 3 -> 2 -> 1 -> 0.
    std::vector<vertex_t> parent{0, 0, 1, 2, 3};
    SerialParentOps ops(parent.data());
    for (vertex_t v = 0; v < 5; ++v) {
      detail::finalize_vertex(policy, v, ops);
    }
    for (vertex_t v = 0; v < 5; ++v) {
      EXPECT_EQ(parent[v], 0u) << "policy " << static_cast<int>(policy) << " vertex " << v;
    }
  }
}

TEST(FinalizeVertex, RootStaysFixed) {
  std::vector<vertex_t> parent{0};
  SerialParentOps ops(parent.data());
  detail::finalize_vertex(FinalizePolicy::kSingle, 0, ops);
  EXPECT_EQ(parent[0], 0u);
}

}  // namespace
}  // namespace ecl
