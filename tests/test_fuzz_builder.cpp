// Fuzz-style tests: random messy edge lists (self-loops, duplicates, both
// directions, skewed endpoints) conditioned by GraphBuilder must match a
// naive set-based reference and, bit for bit, the sort-based builder the
// library used before; the resulting graphs must be labeled identically by
// all core implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/ecl_cc.h"
#include "graph/builder.h"
#include "graph/stats.h"
#include "graph/suite.h"
#include "gpusim/gpu_cc.h"

namespace ecl {
namespace {

/// Naive reference conditioning: symmetrize, drop loops, dedupe via a set.
std::set<std::pair<vertex_t, vertex_t>> reference_edge_set(const std::vector<Edge>& edges) {
  std::set<std::pair<vertex_t, vertex_t>> out;
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    out.emplace(u, v);
    out.emplace(v, u);
  }
  return out;
}

/// The sort-based builder the library used before its counting sort, kept
/// as an oracle: drop loops, append the reverse arcs, sort all arcs once,
/// unique them and cut the sorted run into lists.
Graph sort_oracle(vertex_t n, std::vector<Edge> edges) {
  std::erase_if(edges, [](const Edge& e) { return e.first == e.second; });
  const std::size_t original = edges.size();
  for (std::size_t i = 0; i < original; ++i) {
    edges.emplace_back(edges[i].second, edges[i].first);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  UninitVector<edge_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) ++offsets[u + 1];
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  UninitVector<vertex_t> adjacency;
  for (const auto& [u, v] : edges) adjacency.push_back(v);
  return Graph(std::move(offsets), std::move(adjacency));
}

/// Builds `edges` with both the library and the oracle and requires
/// identical CSR arrays.
void expect_matches_oracle(vertex_t n, const std::vector<Edge>& edges) {
  const Graph got = build_graph(n, edges);
  const Graph want = sort_oracle(n, edges);
  EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets()));
  EXPECT_TRUE(std::ranges::equal(got.adjacency(), want.adjacency()));
}

std::vector<Edge> random_messy_edges(std::uint64_t seed, vertex_t n, std::size_t count) {
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    vertex_t u;
    vertex_t v;
    switch (rng.bounded(5)) {
      case 0:  // self loop
        u = v = static_cast<vertex_t>(rng.bounded(n));
        break;
      case 1:  // duplicate-prone: small endpoint range
        u = static_cast<vertex_t>(rng.bounded(std::min<vertex_t>(n, 8)));
        v = static_cast<vertex_t>(rng.bounded(std::min<vertex_t>(n, 8)));
        break;
      case 2:  // hub edge
        u = 0;
        v = static_cast<vertex_t>(rng.bounded(n));
        break;
      default:  // uniform
        u = static_cast<vertex_t>(rng.bounded(n));
        v = static_cast<vertex_t>(rng.bounded(n));
        break;
    }
    edges.emplace_back(u, v);
  }
  return edges;
}

class BuilderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BuilderFuzz, ConditioningMatchesNaiveReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const vertex_t n = 50 + static_cast<vertex_t>(GetParam()) * 37;
  const auto raw = random_messy_edges(seed, n, 40 + 60 * static_cast<std::size_t>(GetParam()));
  const Graph g = build_graph(n, raw);
  const auto expected = reference_edge_set(raw);

  EXPECT_EQ(g.num_edges(), expected.size());
  std::set<std::pair<vertex_t, vertex_t>> actual;
  for (vertex_t v = 0; v < n; ++v) {
    vertex_t prev = 0;
    bool first = true;
    for (const vertex_t u : g.neighbors(v)) {
      EXPECT_NE(u, v) << "self loop survived";
      if (!first) {
        EXPECT_GT(u, prev) << "unsorted or duplicate neighbor";
      }
      prev = u;
      first = false;
      actual.emplace(v, u);
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST_P(BuilderFuzz, AllCoreImplementationsAgree) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 1000;
  const vertex_t n = 200 + static_cast<vertex_t>(GetParam()) * 91;
  const Graph g = build_graph(n, random_messy_edges(seed, n, 3 * n));
  const auto reference = reference_components(g);
  EXPECT_EQ(ecl_cc_serial(g), reference);
  EXPECT_EQ(ecl_cc_omp(g), reference);
  EXPECT_EQ(gpusim::ecl_cc_gpu(g, gpusim::titanx_like()).labels, reference);
}

TEST_P(BuilderFuzz, MatchesSortOracleUnderEveryOption) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const vertex_t n = 50 + static_cast<vertex_t>(GetParam()) * 37;
  const auto count = 40 + 60 * static_cast<std::size_t>(GetParam());
  expect_matches_oracle(n, random_messy_edges(seed, n, count));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderFuzz, ::testing::Range(0, 12));

TEST(BuilderOracle, EdgeCasesMatchUnderEveryOption) {
  expect_matches_oracle(0, {});
  expect_matches_oracle(5, {});  // isolated vertices only
  // Isolated vertices 0, 2 and 6 between and around short lists.
  expect_matches_oracle(7, {{1, 3}, {3, 1}, {4, 4}, {5, 3}, {1, 3}});
  // A hub whose list outgrows 16 entries, in descending order, with
  // duplicates, loops and an isolated vertex at each end.
  std::vector<Edge> hub;
  for (vertex_t v = 40; v >= 2; --v) hub.emplace_back(1, v);
  for (vertex_t v = 2; v <= 40; v += 3) hub.emplace_back(v, 1);
  hub.emplace_back(1, 1);
  hub.emplace_back(20, 20);
  expect_matches_oracle(42, hub);
}

// build_graph splits an input of m edges on n vertices into
// m / max(n, 2^16) units, at most one per CPU of the caller's mask, and its
// passes run them on every such CPU; the inputs above are all one unit.
// These span 1 to 16 units before the cap, including inputs where nearly
// every edge is a loop (n = 1) or a duplicate (n = 2), and must match the
// oracle alike.
TEST(BuilderOracle, MultiUnitInputsMatch) {
  for (const std::size_t m : {std::size_t{1} << 17, std::size_t{300000}, std::size_t{1100000}}) {
    for (const vertex_t n : {1u, 2u, 1000u, 70000u, (1u << 17) + 1}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));
      expect_matches_oracle(n, random_messy_edges(m + n, n, m));
    }
  }
}

// A hub in a third of 2^20 edges, as tail and as head, so its list gathers
// arcs from every unit, and the second scatter's head ranges split around it.
TEST(BuilderOracle, MultiUnitHubMatches) {
  constexpr vertex_t kN = 5000;
  Xoshiro256 rng(3);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < (std::size_t{1} << 20); ++i) {
    const auto v = static_cast<vertex_t>(rng.bounded(kN));
    switch (i % 3) {
      case 0:
        edges.emplace_back(0, v);
        break;
      case 1:
        edges.emplace_back(v, 0);
        break;
      default:
        edges.emplace_back(static_cast<vertex_t>(rng.bounded(kN)), v);
        break;
    }
  }
  expect_matches_oracle(kN, edges);
}

// Runs of 7 copies of one edge, every third run a loop, so whatever the
// unit count most unit boundaries split a run of duplicates or of loops;
// the same edges recur every kN runs, in other units.
TEST(BuilderOracle, LoopsAndDuplicatesAcrossUnitBoundariesMatch) {
  constexpr vertex_t kN = 3000;
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < 1000003; ++i) {
    const auto run = static_cast<vertex_t>(i / 7);
    const vertex_t u = run % kN;
    edges.emplace_back(u, run % 3 == 0 ? u : (u * 31 + 1) % kN);
  }
  expect_matches_oracle(kN, edges);
}

TEST(BuilderOracle, OutOfRangeEndpointThrows) {
  EXPECT_THROW((void)build_graph(3, std::vector<Edge>{{0, 1}, {0, 3}}), std::out_of_range);
  EXPECT_THROW((void)build_graph(3, std::vector<Edge>{{3, 0}}), std::out_of_range);
  EXPECT_THROW((void)build_graph(0, std::vector<Edge>{{0, 0}}), std::out_of_range);
  // A loop is range-checked even when it would be dropped.
  EXPECT_THROW((void)build_graph(2, std::vector<Edge>{{2, 2}}), std::out_of_range);
  // The only bad endpoint is the last edge's, in the last of several units.
  std::vector<Edge> many(std::size_t{1} << 18, Edge{1, 2});
  many.back() = {5, 1000};
  EXPECT_THROW((void)build_graph(1000, many), std::out_of_range);
}

TEST(SuiteDeterminism, SameNameAndScaleYieldIdenticalGraphs) {
  for (const char* name : {"internet", "rmat16.sym", "USA-road-d.NY"}) {
    const Graph a = make_suite_graph(name, 0.5);
    const Graph b = make_suite_graph(name, 0.5);
    ASSERT_EQ(a.num_vertices(), b.num_vertices()) << name;
    ASSERT_EQ(a.num_edges(), b.num_edges()) << name;
    EXPECT_TRUE(std::equal(a.adjacency().begin(), a.adjacency().end(),
                           b.adjacency().begin()))
        << name;
  }
}

}  // namespace
}  // namespace ecl
