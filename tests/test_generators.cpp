// Property tests for the synthetic graph generators: determinism, size,
// degree structure, and the component signatures each family promises.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "graph/suite.h"
#include "cpu_mask.h"
#include "test_util.h"

namespace ecl {
namespace {

TEST(GenGrid, SizeAndDegrees) {
  const Graph g = gen_grid2d(8, 13);
  EXPECT_EQ(g.num_vertices(), 104u);
  // 4-neighbor mesh: m_undirected = r*(c-1) + (r-1)*c
  EXPECT_EQ(g.num_edges(), 2u * (8 * 12 + 7 * 13));
  const auto s = compute_stats(g, "g");
  EXPECT_EQ(s.min_degree, 2u);  // corners
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_EQ(s.num_components, 1u);
}

TEST(GenGrid, DegenerateSingleRow) {
  const Graph g = gen_grid2d(1, 5);
  EXPECT_EQ(g.num_edges(), 8u);
  EXPECT_EQ(count_components(g), 1u);
}

TEST(GenDelaunay, AverageDegreeNearSix) {
  const auto s = compute_stats(gen_delaunay_like(60, 60), "d");
  EXPECT_EQ(s.num_components, 1u);
  EXPECT_GT(s.avg_degree, 4.5);
  EXPECT_LT(s.avg_degree, 6.5);
}

TEST(GenUniformRandom, Deterministic) {
  const Graph a = gen_uniform_random(1000, 3000, 17);
  const Graph b = gen_uniform_random(1000, 3000, 17);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.adjacency().begin(), a.adjacency().end(),
                         b.adjacency().begin()));
}

TEST(GenUniformRandom, SeedChangesGraph) {
  const Graph a = gen_uniform_random(1000, 3000, 17);
  const Graph b = gen_uniform_random(1000, 3000, 18);
  EXPECT_FALSE(a.num_edges() == b.num_edges() &&
               std::equal(a.adjacency().begin(), a.adjacency().end(),
                          b.adjacency().begin()));
}

TEST(GenRmat, VertexCountIsPowerOfScale) {
  const Graph g = gen_rmat(12, 8, RmatParams{}, 5);
  EXPECT_EQ(g.num_vertices(), 1u << 12);
  EXPECT_GT(g.num_edges(), 0u);
}

TEST(GenRmat, SkewedDegreesAndIsolatedVertices) {
  const auto s = compute_stats(gen_rmat(14, 8, RmatParams{}, 5), "rmat");
  EXPECT_EQ(s.min_degree, 0u);                       // isolated vertices exist
  EXPECT_GT(s.max_degree, 20 * s.avg_degree);        // heavy tail
  EXPECT_GT(s.num_components, 100u);                 // many tiny components
}

TEST(GenRmat, RejectsBadScale) {
  EXPECT_THROW(gen_rmat(0, 8, RmatParams{}, 1), std::invalid_argument);
  EXPECT_THROW(gen_rmat(31, 8, RmatParams{}, 1), std::invalid_argument);
}

TEST(GenRmat, RejectsNegativeProbability) {
  // The total is positive, but a probability below zero does not exist.
  EXPECT_THROW(gen_rmat(8, 4, RmatParams{0.8, -0.1, 0.2, 0.1}, 1), std::invalid_argument);
  EXPECT_THROW(gen_rmat(8, 4, RmatParams{0.5, 0.3, 0.3, -0.1}, 1), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(gen_rmat(8, 4, RmatParams{nan, 0.2, 0.2, 0.1}, 1), std::invalid_argument);
  EXPECT_THROW(gen_rmat(8, 4, RmatParams{0.5, 0.2, 0.2, nan}, 1), std::invalid_argument);
  EXPECT_THROW(gen_rmat(8, 4, RmatParams{0.0, 0.0, 0.0, 0.0}, 1), std::invalid_argument);
  // Zero is a probability: a quadrant that is never chosen.
  EXPECT_EQ(gen_rmat(8, 4, RmatParams{0.5, 0.0, 0.5, 0.0}, 1).num_vertices(), 256u);
}

TEST(GenKronecker, MoreSkewedThanDefaultRmat) {
  const auto kron = compute_stats(gen_kronecker(13, 16, 5), "kron");
  const auto rmat = compute_stats(gen_rmat(13, 16, RmatParams{}, 5), "rmat");
  EXPECT_GT(kron.max_degree, rmat.max_degree);
}

TEST(GenRoad, LowDegreeGiantComponent) {
  const auto s = compute_stats(gen_road_network(20000, 11), "road");
  EXPECT_EQ(s.num_vertices, 20000u);
  EXPECT_GT(s.avg_degree, 1.5);
  EXPECT_LT(s.avg_degree, 4.5);
  EXPECT_LE(s.max_degree, 8u);
  // Giant component dominates.
  const auto sizes = component_sizes(gen_road_network(20000, 11));
  EXPECT_GT(sizes[0], 15000u);
}

TEST(GenPreferentialAttachment, HeavyTailConnected) {
  const auto s = compute_stats(gen_preferential_attachment(5000, 4, 13), "pa");
  EXPECT_EQ(s.num_components, 1u);  // each vertex links to an earlier one
  EXPECT_GT(s.max_degree, 10 * s.avg_degree);
}

TEST(GenCitation, HasMultipleComponents) {
  const auto s = compute_stats(gen_citation(20000, 4, 0.7, 19), "cit");
  EXPECT_GT(s.num_components, 50u);  // uncited/unciting papers
  EXPECT_EQ(s.min_degree, 0u);
}

TEST(GenWeb, SignatureOfTable2) {
  const auto s = compute_stats(gen_web_graph(20000, 23), "web");
  EXPECT_EQ(s.min_degree, 0u);             // isolated pages
  EXPECT_GT(s.max_degree, 40u);            // hub pages
  EXPECT_GT(s.num_components, 20u);        // crawl fragments
  const auto sizes = component_sizes(gen_web_graph(20000, 23));
  EXPECT_GT(sizes[0], 10000u);             // one giant component
}

TEST(GenSmallWorld, RingDegreeWithoutRewiring) {
  const auto s = compute_stats(gen_small_world(100, 3, 0.0, 1), "sw");
  EXPECT_EQ(s.min_degree, 6u);
  EXPECT_EQ(s.max_degree, 6u);
  EXPECT_EQ(s.num_components, 1u);
}

TEST(GenSmallWorld, RejectsTooLargeK) {
  EXPECT_THROW(gen_small_world(10, 5, 0.1, 1), std::invalid_argument);
}

/// FNV-1a over the bytes of `offsets` then `adjacency`, each value taken
/// least significant byte first.
std::uint64_t csr_hash(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](auto values) {
    for (const auto x : values) {
      for (std::size_t i = 0; i < sizeof(x); ++i) {
        h ^= (static_cast<std::uint64_t>(x) >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  };
  mix(g.offsets());
  mix(g.adjacency());
  return h;
}

// Pins every generator's exact output, so a change to a generator or to the
// builder under them cannot alter the graphs a benchmark or paper table runs
// on without this test noticing.
TEST(Generators, OutputIsBitStable) {
  struct Case {
    const char* name;
    Graph g;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"road", gen_road_network(4000, 7), 0xa219e24b66030dbaull},
      {"grid", gen_grid2d(40, 50), 0x196f8f59d75103cdull},
      {"kron", gen_kronecker(10, 16, 7), 0xe521e4b8990d1051ull},
      {"web", gen_web_graph(4000, 7), 0x5ef9fa5aec10ccebull},
      {"rmat", gen_rmat(10, 8, RmatParams{}, 7), 0x0794f84b02319692ull},
      {"uniform", gen_uniform_random(2000, 6000, 7), 0xcfa99d28deaaaa11ull},
      {"pa", gen_preferential_attachment(2000, 4, 7), 0xfeebf1c6092770f9ull},
      {"citation", gen_citation(2000, 4, 0.7, 7), 0x56854614eb484970ull},
      {"small_world", gen_small_world(2000, 3, 0.1, 7), 0xa2d8774f72d79e90ull},
      {"delaunay", gen_delaunay_like(40, 50), 0xbdd457bea0d26f4bull},
      // 262,144 edges each: gen_rmat splits these into 4 chunks.
      {"kron_chunked", gen_kronecker(14, 16, 7), 0xe07638e9006d8c45ull},
      {"rmat_chunked", gen_rmat(15, 8, RmatParams{}, 7), 0x94bff71adabc5059ull},
      // Fewer edges than lanes, and edge counts that are not a multiple of
      // four: gen_rmat's lane loop draws these in its one-lane remainder.
      {"rmat_2_edges", gen_rmat(1, 1, RmatParams{}, 7), 0x81d23fd7003c2305ull},
      {"rmat_6_edges", gen_rmat(1, 3, RmatParams{}, 7), 0xa2d159d5c13a85e7ull},
      // 327,680 edges: five chunks.
      {"kron_327680_edges", gen_kronecker(16, 5, 7), 0x0156c54c05dc0387ull},
      // 229,376 edges: three chunks, whose boundaries 76,458 and 152,917
      // are not multiples of four.
      {"rmat_229376_edges", gen_rmat(15, 7, RmatParams{}, 7), 0xf5a24a75ad8d6e4bull},
      // Several claimed blocks each: road's 362 lattice rows in 4 blocks,
      // the last row holding 32 vertices; grid's 300 rows in 6; web's sites
      // in 4, the last site cut short.
      {"road_4_blocks", gen_road_network((1u << 17) + 3, 7), 0x8e1287dcb9f642f0ull},
      {"grid_6_blocks", gen_grid2d(300, 700), 0x6d53c9b6cd60fa75ull},
      {"web_4_blocks", gen_web_graph((1u << 17) + 77, 7), 0x371ac64b9b12eb68ull},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(csr_hash(c.g), c.hash);
    testing::expect_conditioned(c.g);
  }
}

// gen_grid2d, gen_road_network and gen_web_graph write their CSR directly.
// These oracles are their former bodies, which drew the same edges into an
// edge list and conditioned it with build_graph; the generators must return
// the oracles' arrays bit for bit.

Graph grid_oracle(vertex_t rows, vertex_t cols) {
  const auto n = static_cast<std::uint64_t>(rows) * cols;
  std::vector<Edge> edges;
  auto id = [cols](vertex_t r, vertex_t c) { return r * cols + c; };
  for (vertex_t r = 0; r < rows; ++r) {
    for (vertex_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return build_graph(static_cast<vertex_t>(n), edges);
}

Graph road_oracle(vertex_t n, std::uint64_t seed) {
  if (n == 0) return Graph();
  const auto side = static_cast<vertex_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  auto id = [side](vertex_t r, vertex_t c) { return r * side + c; };
  for (vertex_t r = 0; r < side; ++r) {
    for (vertex_t c = 0; c < side; ++c) {
      const std::uint64_t u = id(r, c);
      if (u >= n) continue;
      const bool right_ok = c + 1 < side && id(r, c + 1) < n;
      const bool down_ok = r + 1 < side && id(r + 1, c) < n;
      if (right_ok && rng.uniform() < 0.92) {
        edges.emplace_back(static_cast<vertex_t>(u), id(r, c + 1));
      }
      if (down_ok && rng.uniform() < 0.92) {
        edges.emplace_back(static_cast<vertex_t>(u), id(r + 1, c));
      }
      if (right_ok && down_ok && id(r + 1, c + 1) < n && rng.uniform() < 0.05) {
        edges.emplace_back(static_cast<vertex_t>(u), id(r + 1, c + 1));
      }
    }
  }
  return build_graph(n, edges);
}

Graph web_oracle(vertex_t n, std::uint64_t seed) {
  if (n == 0) return Graph();
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  std::vector<vertex_t> hubs;
  std::vector<vertex_t> linked_pages;
  vertex_t v = 0;
  while (v < n) {
    const vertex_t site_size = static_cast<vertex_t>(2 + rng.bounded(62));
    const vertex_t hub = v;
    const vertex_t end = static_cast<vertex_t>(
        std::min<std::uint64_t>(n, static_cast<std::uint64_t>(v) + site_size));
    const bool connected_site = rng.uniform() > 0.02;
    linked_pages.clear();
    for (vertex_t page = v + 1; page < end; ++page) {
      if (rng.uniform() >= 0.03) linked_pages.push_back(page);
    }
    for (const vertex_t page : linked_pages) {
      edges.emplace_back(hub, page);
      const int nav_links = 4 + static_cast<int>(rng.bounded(8));
      for (int l = 0; l < nav_links; ++l) {
        const vertex_t other = linked_pages[rng.bounded(linked_pages.size())];
        if (other != page) edges.emplace_back(page, other);
      }
      if (!hubs.empty() && rng.uniform() < 0.15 && connected_site) {
        edges.emplace_back(page, hubs[rng.bounded(hubs.size())]);
      }
    }
    if (connected_site && !hubs.empty()) {
      const int out_links = 1 + static_cast<int>(rng.bounded(3));
      for (int j = 0; j < out_links; ++j) {
        edges.emplace_back(hub, hubs[rng.bounded(hubs.size())]);
      }
    }
    hubs.push_back(hub);
    v = end;
  }
  return build_graph(n, edges);
}

void expect_same_csr(const Graph& got, const Graph& want) {
  EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets()));
  EXPECT_TRUE(std::ranges::equal(got.adjacency(), want.adjacency()));
}

// 1x1 and single rows and columns have no neighbour on some side; 40x50 is
// OutputIsBitStable's grid, and 300x700 its grid of several blocks.
TEST(GenGrid, MatchesBuildGraphOracle) {
  const std::pair<vertex_t, vertex_t> shapes[] = {{1, 1}, {1, 5}, {5, 1},   {2, 2},
                                                  {3, 7}, {40, 50}, {300, 700}};
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    expect_same_csr(gen_grid2d(rows, cols), grid_oracle(rows, cols));
  }
}

// Sizes that are not squares leave the lattice's last row partial; 2^17 + 3
// is written in 4 claimed blocks of rows.
TEST(GenRoad, MatchesBuildGraphOracle) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const vertex_t n : {1u, 2u, 3u, 5u, 99u, 100u, 101u, 4000u, 12345u, (1u << 17) + 3}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      expect_same_csr(gen_road_network(n, seed), road_oracle(n, seed));
    }
  }
}

// Sites hold 2-63 pages: n = 1..3 is at most a site or two, and most sizes
// cut the last site short; 2^17 + 77 is written in 4 claimed blocks of sites.
TEST(GenWeb, MatchesBuildGraphOracle) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const vertex_t n :
         {1u, 2u, 3u, 63u, 64u, 65u, 1000u, 20000u, 32768u, (1u << 17) + 77}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      expect_same_csr(gen_web_graph(n, seed), web_oracle(n, seed));
    }
  }
}

// Every generator that runs on the caller's mask splits its work into
// chunks or blocks that the caller and one pinned helper per other CPU of
// the mask claim: gen_rmat its edges, build_graph its passes, gen_road_network,
// gen_grid2d and gen_web_graph their lattice rows or sites. Neither the
// number of CPUs nor which one took which part may show. 2^19 skewed edges
// on 2^15 vertices are several of build_graph's units on two or more CPUs.
TEST(Generators, OutputIndependentOfThreadCount) {
  constexpr vertex_t kN = vertex_t{1} << 15;
  std::vector<Edge> edges(std::size_t{1} << 19);
  Xoshiro256 rng(7);
  for (auto& [u, v] : edges) {
    u = static_cast<vertex_t>(rng.bounded(kN));
    v = static_cast<vertex_t>(rng.bounded(1 + rng.bounded(kN)));
  }
  const testing::CpuMaskScope mask;
  std::vector<std::uint64_t> first;
  for (const int cpus : {1, 2, 3, mask.cpus()}) {
    if (cpus > mask.cpus()) continue;
    ASSERT_TRUE(mask.limit(cpus));
    const std::vector<std::uint64_t> hashes = {
        csr_hash(gen_kronecker(14, 16, 7)),
        csr_hash(gen_rmat(15, 8, RmatParams{}, 7)),
        csr_hash(gen_kronecker(16, 5, 7)),
        csr_hash(build_graph(kN, edges)),
        csr_hash(gen_road_network((1u << 17) + 3, 7)),
        csr_hash(gen_grid2d(300, 700)),
        csr_hash(gen_web_graph((1u << 17) + 77, 7))};
    if (first.empty()) first = hashes;
    EXPECT_EQ(hashes, first) << cpus << " CPUs";
  }
}

TEST(Suite, AllEighteenGraphsPresent) {
  EXPECT_EQ(paper_suite().size(), 18u);
  const auto names = suite_names();
  EXPECT_EQ(names.front(), "2d-2e20.sym");
  EXPECT_EQ(names.back(), "USA-road-d.USA");
}

TEST(Suite, SmallScaleBuildsAndMatchesFamilies) {
  // Build every suite graph at 1/64 scale: must be non-empty and valid.
  for (const auto& name : suite_names()) {
    const Graph g = make_suite_graph(name, 1.0 / 64.0);
    EXPECT_GT(g.num_vertices(), 0u) << name;
    const auto offs = g.offsets();
    EXPECT_EQ(offs.back(), g.num_edges()) << name;
  }
}

TEST(Suite, UnknownNameThrows) {
  EXPECT_THROW(make_suite_graph("no_such_graph"), std::invalid_argument);
}

TEST(Suite, ScaleGrowsGraph) {
  const Graph small = make_suite_graph("internet", 0.25);
  const Graph large = make_suite_graph("internet", 1.0);
  EXPECT_LT(small.num_vertices(), large.num_vertices());
}

TEST(Suite, SmallSuiteIsSubsetOfFullSuite) {
  const auto all = suite_names();
  for (const auto& name : small_suite_names()) {
    EXPECT_NE(std::find(all.begin(), all.end(), name), all.end()) << name;
  }
}

}  // namespace
}  // namespace ecl
