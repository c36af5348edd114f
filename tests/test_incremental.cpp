// Tests for the streaming/incremental connectivity API.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
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

TEST(IncrementalCC, SeededFromGraphMatchesBatchLabels) {
  const Graph g = gen_web_graph(3000, 13);
  IncrementalCC cc(g);
  EXPECT_EQ(cc.labels(), reference_components(g));
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

TEST(IncrementalCC, AssignedLabelsActAsTheUnionFind) {
  // A structure built from a canonical labelling answers like the one that
  // produced it, and later insertions merge across it.
  const Graph g = gen_uniform_random(2000, 1500, 41);
  const auto labels = reference_components(g);
  IncrementalCC cc{std::span<const vertex_t>(labels)};
  EXPECT_EQ(cc.num_components(), count_components(g));
  for (vertex_t v = 0; v < g.num_vertices(); ++v) ASSERT_EQ(cc.component_of(v), labels[v]);

  // Join two non-root members of different components.
  std::vector<vertex_t> members;
  for (vertex_t v = 0; v < g.num_vertices() && members.size() < 2; ++v) {
    if (labels[v] != v && (members.empty() || labels[v] != labels[members[0]])) {
      members.push_back(v);
    }
  }
  ASSERT_EQ(members.size(), 2u);
  cc.add_edge(members[1], members[0]);
  EXPECT_TRUE(cc.connected(labels[members[0]], labels[members[1]]));
  EXPECT_EQ(cc.num_components(), count_components(g) - 1);
}

// With no concurrent hook, path halving only re-points a vertex at an
// ancestor in its own tree, so every copy is a forest (parent <= child)
// whose trees are exactly the live components. Descending path inserts
// build long chains, so the readers' finds keep halving while the copies
// run (a plain memcpy here is what ThreadSanitizer would flag).
TEST(IncrementalCC, ParentCopyOverlappingFindsIsTheLiveForest) {
  constexpr vertex_t kN = 1 << 14;
  constexpr vertex_t kChain = 1 << 10;
  IncrementalCC cc(kN);
  for (vertex_t v = kN - 1; v > 0; --v) {
    if (v % kChain != 0) cc.add_edge(v - 1, v);  // chain v -> v-1 -> ... -> root
  }
  std::vector<vertex_t> want(kN);
  for (vertex_t v = 0; v < kN; ++v) want[v] = v - v % kChain;

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      vertex_t v = kN - 1 - static_cast<vertex_t>(r);
      while (!done.load(std::memory_order_acquire)) {
        (void)cc.component_of(v);
        (void)cc.connected(v, (v * 31 + 7) % kN);
        v = (v + kN - 97) % kN;
      }
    });
  }
  std::vector<vertex_t> copy(kN);
  bool forest = true;
  for (int round = 0; round < 50 && forest; ++round) {
    cc.copy_parents(copy);
    for (vertex_t v = 0; v < kN; ++v) forest = forest && copy[v] <= v;
    EXPECT_TRUE(forest) << "round " << round;
    if (!forest) break;
    for (vertex_t v = 0; v < kN; ++v) copy[v] = copy[copy[v]];  // Fini
    EXPECT_TRUE(copy == want) << "round " << round;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
}

// copy_parents under live hooks, modelled on the service: one thread
// inserts batches in order, publishing how many edges it has begun and
// finished; two readers keep path halving running on the endpoints just
// inserted; a copier reads the finished count W0, copies the parent array,
// reads the begun count W1, and checks that the Fini of its copy holds every
// edge of prefix(W0) and joins nothing beyond prefix(W1). The inserter runs
// at most a window of edges past the last check, and each copy starts once
// it is hooking, so on separate cores the hooks land inside the copies.
// Mostly-local edges, two per vertex, keep many trees hooking for the whole
// stream. An ascending copy fails it: in a typical run about half of its
// copies split a prefix(W0) set.
TEST(IncrementalCC, DescendingCopyUnderHooksIsSandwiched) {
  constexpr vertex_t kN = 1 << 15;
  constexpr std::size_t kEdges = 1 << 16;
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kWindow = 32 * kBatch;
  std::size_t copies = 0;
  std::size_t violations = 0;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    Xoshiro256 rng(seed);
    std::vector<Edge> edges(kEdges);
    for (auto& [u, v] : edges) {
      u = static_cast<vertex_t>(rng.next() % kN);
      const auto r = rng.next();
      v = r % 8 == 0 ? static_cast<vertex_t>((r >> 3) % kN)
                     : static_cast<vertex_t>((u + (r >> 3) % 64) % kN);
    }
    IncrementalCC cc(kN);
    std::atomic<std::size_t> allowed{0};
    std::atomic<std::size_t> begun{0};
    std::atomic<std::size_t> finished{0};
    std::thread inserter([&] {
      for (std::size_t off = 0; off < kEdges; off += kBatch) {
        while (off >= allowed.load(std::memory_order_acquire)) std::this_thread::yield();
        begun.store(off + kBatch, std::memory_order_release);
        cc.add_edges(edges.data() + off, kBatch);
        finished.store(off + kBatch, std::memory_order_release);
      }
    });
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        for (std::size_t k = r; finished.load(std::memory_order_acquire) < kEdges; ++k) {
          const std::size_t at = begun.load(std::memory_order_acquire);
          if (at == 0) continue;
          const Edge& e = edges[at - 1 - k % std::min<std::size_t>(at, kWindow)];
          (void)cc.component_of(e.first);
          (void)cc.component_of(e.second);
        }
      });
    }

    DisjointSet lower(kN);  // prefix(W0)
    DisjointSet upper(kN);  // prefix(W1)
    std::size_t lower_edges = 0;
    std::size_t upper_edges = 0;
    std::vector<vertex_t> copy(kN);
    for (std::size_t w0 = 0; w0 < kEdges;) {
      allowed.store(upper_edges + kWindow, std::memory_order_release);
      while (upper_edges < kEdges && begun.load(std::memory_order_acquire) == upper_edges) {
        std::this_thread::yield();
      }
      w0 = finished.load(std::memory_order_acquire);
      cc.copy_parents(copy);
      const std::size_t w1 = begun.load(std::memory_order_acquire);
      for (vertex_t v = 0; v < kN; ++v) copy[v] = copy[copy[v]];  // Fini
      for (; lower_edges < w0; ++lower_edges) {
        lower.unite(edges[lower_edges].first, edges[lower_edges].second);
      }
      for (; upper_edges < w1; ++upper_edges) {
        upper.unite(edges[upper_edges].first, edges[upper_edges].second);
      }
      bool ok = true;
      for (vertex_t v = 0; v < kN && ok; ++v) {
        ok = copy[lower.find(v)] == copy[v] && upper.same(v, copy[v]);
      }
      ++copies;
      violations += ok ? 0 : 1;
    }
    inserter.join();
    for (auto& t : readers) t.join();
  }
  EXPECT_EQ(violations, 0u) << "in " << copies << " copies";
  EXPECT_GE(copies, kEdges / kWindow);
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
