// gen_rmat's lane loop, built at this translation unit's ISA, the default
// one. On an AVX2 machine gen_rmat runs only its AVX2 build, so this file is
// what runs the default build's lane code there.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/builder.h"
#include "graph/rmat_lanes.h"

namespace ecl {
namespace {

template <int Lanes>
std::vector<Edge> draw(int scale, edge_t count, const RmatParams& params, std::uint64_t seed) {
  std::vector<Edge> edges(count);
  rmat::draw_edges<Lanes>(Xoshiro256(seed), scale, rmat::Thresholds::of(params), edges.data(),
                          count);
  return edges;
}

TEST(RmatLanes, EveryLaneCountDrawsTheOneLaneEdges) {
  for (const edge_t count : {1, 2, 3, 4, 5, 7, 8, 9, 1001}) {
    for (const std::uint64_t seed : {1, 7}) {
      const std::vector<Edge> one = draw<1>(10, count, RmatParams{}, seed);
      EXPECT_EQ(draw<2>(10, count, RmatParams{}, seed), one) << count << " edges";
      EXPECT_EQ(draw<4>(10, count, RmatParams{}, seed), one) << count << " edges";
    }
  }
}

// Below 2^17 edges gen_rmat draws one chunk from the seed's own stream, so
// its graph is these edges built, whichever lane count this CPU runs.
TEST(RmatLanes, GenRmatBuildsTheSameEdges) {
  constexpr int kScale = 12;
  constexpr edge_t kEdges = edge_t{8} << kScale;
  for (const RmatParams& params : {RmatParams{}, RmatParams{0.57, 0.19, 0.19, 0.05}}) {
    const Graph want = build_graph(vertex_t{1} << kScale, draw<4>(kScale, kEdges, params, 7));
    const Graph got = gen_rmat(kScale, 8, params, 7);
    EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets()));
    EXPECT_TRUE(std::ranges::equal(got.adjacency(), want.adjacency()));
  }
}

}  // namespace
}  // namespace ecl
