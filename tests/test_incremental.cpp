// Tests for the streaming/incremental connectivity API.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "graph/stats.h"

namespace ecl {
namespace {

TEST(IncrementalCC, StartsAllSingletons) {
  IncrementalCC cc(5);
  EXPECT_EQ(cc.num_components(), 5u);
  EXPECT_FALSE(cc.connected(0, 1));
  EXPECT_EQ(cc.component_of(3), 3u);
}

TEST(IncrementalCC, EdgeInsertionMergesComponents) {
  IncrementalCC cc(6);
  cc.add_edge(0, 1);
  EXPECT_TRUE(cc.connected(0, 1));
  EXPECT_FALSE(cc.connected(0, 2));
  cc.add_edge(2, 3);
  cc.add_edge(1, 2);
  EXPECT_TRUE(cc.connected(0, 3));
  EXPECT_EQ(cc.num_components(), 3u);  // {0,1,2,3}, {4}, {5}
}

TEST(IncrementalCC, QueriesInterleaveWithInsertions) {
  IncrementalCC cc(100);
  for (vertex_t v = 0; v + 1 < 100; ++v) {
    EXPECT_FALSE(cc.connected(0, v + 1));
    cc.add_edge(v, v + 1);
    EXPECT_TRUE(cc.connected(0, v + 1));
  }
  EXPECT_EQ(cc.num_components(), 1u);
}

TEST(IncrementalCC, DuplicateAndReversedEdgesAreIdempotent) {
  IncrementalCC cc(4);
  cc.add_edge(0, 1);
  cc.add_edge(1, 0);
  cc.add_edge(0, 1);
  EXPECT_EQ(cc.num_components(), 3u);
}

TEST(IncrementalCC, StreamingMatchesBatchOnFinalGraph) {
  // Insert the edges of a random graph one by one; the final labeling must
  // equal the batch computation on the whole graph.
  const Graph g = gen_uniform_random(2000, 5000, 23);
  IncrementalCC cc(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (const vertex_t u : g.neighbors(v)) {
      if (u < v) cc.add_edge(v, u);
    }
  }
  EXPECT_EQ(cc.labels(), reference_components(g));
}

TEST(IncrementalCC, ConcurrentInsertions) {
  constexpr vertex_t kN = 30000;
  IncrementalCC cc(kN);
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&cc, t] {
      for (vertex_t v = static_cast<vertex_t>(t); v + 1 < kN; v += 6) {
        cc.add_edge(v, v + 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(cc.num_components(), 1u);
  const auto labels = cc.labels();
  for (vertex_t v = 0; v < kN; ++v) ASSERT_EQ(labels[v], 0u);
}

TEST(IncrementalCC, BulkInsertMatchesEdgeByEdge) {
  const Graph g = gen_uniform_random(2000, 5000, 31);
  std::vector<Edge> edges;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (const vertex_t u : g.neighbors(v)) {
      if (u < v) edges.emplace_back(v, u);
    }
  }
  IncrementalCC bulk(g.num_vertices());
  bulk.add_edges(edges.data(), edges.size());

  IncrementalCC serial(g.num_vertices());
  for (const auto& [u, v] : edges) serial.add_edge(u, v);

  EXPECT_EQ(bulk.labels(), serial.labels());
  EXPECT_EQ(bulk.num_components(), serial.num_components());
}

TEST(IncrementalCC, BulkInsertEmptyIsNoOp) {
  IncrementalCC cc(5);
  cc.add_edges(nullptr, 0);
  EXPECT_EQ(cc.num_components(), 5u);
}

// Stress: bulk writers race with connectivity readers. Connectivity is
// monotone (no deletions), so a reader that has seen connected(0, v) may
// never observe it false again.
TEST(IncrementalCC, ConcurrentBulkAddAndQuery) {
  constexpr vertex_t kN = 20000;
  constexpr int kWriters = 4;
  IncrementalCC cc(kN);

  // Partition the path 0-1-2-...-(kN-1) into per-writer chunks.
  std::vector<std::vector<Edge>> chunks(kWriters);
  for (vertex_t v = 0; v + 1 < kN; ++v) {
    chunks[v % kWriters].emplace_back(v, v + 1);
  }

  std::atomic<bool> done{false};
  std::atomic<bool> violation{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      vertex_t frontier = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (frontier + 1 < kN && cc.connected(0, frontier + 1)) {
          ++frontier;
        } else if (frontier > 0 && !cc.connected(0, frontier)) {
          violation.store(true);
          return;
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&cc, &chunks, w] {
      // Each writer bulk-inserts its chunk in slices, so unites from
      // different writers interleave heavily.
      const auto& chunk = chunks[static_cast<std::size_t>(w)];
      constexpr std::size_t kSlice = 256;
      for (std::size_t off = 0; off < chunk.size(); off += kSlice) {
        cc.add_edges(chunk.data() + off, std::min(kSlice, chunk.size() - off));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(violation.load());
  EXPECT_EQ(cc.num_components(), 1u);
  EXPECT_TRUE(cc.connected(0, kN - 1));
}

TEST(IncrementalCC, LabelsAreCanonicalMinima) {
  IncrementalCC cc(10);
  cc.add_edge(9, 7);
  cc.add_edge(7, 5);
  const auto labels = cc.labels();
  EXPECT_EQ(labels[9], 5u);
  EXPECT_EQ(labels[7], 5u);
  EXPECT_EQ(labels[5], 5u);
  EXPECT_EQ(labels[0], 0u);
}

}  // namespace
}  // namespace ecl
