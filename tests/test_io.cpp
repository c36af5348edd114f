// Tests for graph file I/O: every supported format round-trips and
// malformed input is rejected with a clear error.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/verify.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "test_util.h"

namespace ecl {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest runs each discovered case as its own
    // process, and a shared directory would race with remove_all below.
    dir_ = std::filesystem::temp_directory_path() /
           ("ecl_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, EdgeListParsesCommentsAndCompactsIds) {
  std::istringstream in(
      "# snap-style comment\n"
      "% matrix-style comment\n"
      "100 200\n"
      "200 300\n"
      "100 300\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);  // IDs compacted to 0..2
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(count_components(g), 1u);
}

TEST_F(IoTest, EdgeListRejectsGarbage) {
  std::istringstream in("1 two\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST_F(IoTest, DimacsParsesProblemAndArcs) {
  std::istringstream in(
      "c DIMACS shortest-path file\n"
      "p sp 4 3\n"
      "a 1 2 5\n"
      "a 2 3 7\n"
      "a 4 4 1\n");  // self loop dropped
  const Graph g = read_dimacs(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);  // 2 undirected edges
  EXPECT_EQ(count_components(g), 2u);
}

TEST_F(IoTest, DimacsRejectsMissingHeader) {
  std::istringstream in("a 1 2 3\n");
  EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
}

TEST_F(IoTest, DimacsRejectsOutOfRangeVertex) {
  std::istringstream in("p sp 2 1\na 1 5 1\n");
  EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketParsesCoordinateFormat) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% comment\n"
      "5 5 3\n"
      "2 1\n"
      "3 2\n"
      "5 4\n");
  const Graph g = read_matrix_market(in);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(count_components(g), 2u);
}

TEST_F(IoTest, MatrixMarketRejectsWrongHeader) {
  std::istringstream in("not a matrix\n1 1 0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketRejectsDenseFormat) {
  std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST_F(IoTest, BinaryRoundTripsExactly) {
  const Graph g = gen_kronecker(10, 8, 77);
  save_binary(g, path("g.eclg"));
  const Graph loaded = load_binary(path("g.eclg"));
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_TRUE(std::equal(g.offsets().begin(), g.offsets().end(), loaded.offsets().begin()));
  EXPECT_TRUE(std::equal(g.adjacency().begin(), g.adjacency().end(),
                         loaded.adjacency().begin()));
}

TEST_F(IoTest, BinaryRejectsBadMagic) {
  std::ofstream out(path("bad.eclg"), std::ios::binary);
  const char junk[64] = {};
  out.write(junk, sizeof(junk));
  out.close();
  EXPECT_THROW((void)load_binary(path("bad.eclg")), std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsTruncation) {
  const Graph g = gen_grid2d(20, 20);
  save_binary(g, path("t.eclg"));
  // Truncate the file in the middle of the adjacency array.
  std::filesystem::resize_file(path("t.eclg"), 200);
  EXPECT_THROW((void)load_binary(path("t.eclg")), std::runtime_error);
}

TEST_F(IoTest, LoadAutoDispatchesOnExtension) {
  const Graph g = gen_path(10);
  save_binary(g, path("auto.eclg"));
  EXPECT_EQ(load_auto(path("auto.eclg")).num_vertices(), 10u);

  {
    std::ofstream out(path("auto.gr"));
    out << "p sp 3 2\na 1 2 1\na 2 3 1\n";
  }
  EXPECT_EQ(load_auto(path("auto.gr")).num_vertices(), 3u);

  {
    std::ofstream out(path("auto.txt"));
    out << "0 1\n1 2\n";
  }
  EXPECT_EQ(load_auto(path("auto.txt")).num_vertices(), 3u);

  {
    std::ofstream out(path("auto.mtx"));
    out << "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n";
  }
  EXPECT_EQ(load_auto(path("auto.mtx")).num_vertices(), 2u);
}

// ---------------------------------------------------- writer round trips ----

/// CSR equality: same vertex count, offsets, and adjacency.
void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(), b.offsets().begin()));
  EXPECT_TRUE(
      std::equal(a.adjacency().begin(), a.adjacency().end(), b.adjacency().begin()));
}

TEST_F(IoTest, EveryFormatPairRoundTrips) {
  // A graph with multiple components and an isolated vertex: build from
  // explicit edges so vertex 6 stays isolated.
  const Graph g = build_graph(7, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {3, 5}});
  const std::vector<std::string> exts = {"eclg", "gr", "mtx"};

  // Header-carrying formats round-trip exactly, via every format pair:
  // write g as A, load it, write that as B, load and compare to g.
  for (const auto& src : exts) {
    for (const auto& dst : exts) {
      const std::string a = path("pair_src." + src);
      const std::string b = path("pair_dst." + dst);
      save_auto(g, a);
      save_auto(load_auto(a), b);
      const Graph back = load_auto(b);
      SCOPED_TRACE(src + " -> " + dst);
      expect_identical(back, g);
    }
  }

  // The edge list has no vertex-count header: the isolated vertex is lost
  // and IDs are compacted, but the connectivity structure survives.
  save_edge_list(g, path("pair.txt"));
  const Graph from_edges = load_auto(path("pair.txt"));
  EXPECT_EQ(from_edges.num_vertices(), 6u);  // vertex 6 dropped
  EXPECT_EQ(from_edges.num_edges(), g.num_edges());
  EXPECT_EQ(count_components(from_edges), count_components(g) - 1);
}

TEST_F(IoTest, EmptyGraphRoundTrips) {
  const Graph g = build_graph(0, {});
  for (const char* name : {"empty.eclg", "empty.gr", "empty.mtx"}) {
    SCOPED_TRACE(name);
    save_auto(g, path(name));
    const Graph back = load_auto(path(name));
    EXPECT_EQ(back.num_vertices(), 0u);
    EXPECT_EQ(back.num_edges(), 0u);
  }
  // An empty edge list loads as the empty graph too (no lines, no vertices).
  save_edge_list(g, path("empty.txt"));
  const Graph back = load_auto(path("empty.txt"));
  EXPECT_EQ(back.num_vertices(), 0u);
  EXPECT_EQ(back.num_edges(), 0u);
}

TEST_F(IoTest, SingleVertexRoundTrips) {
  const Graph g = build_graph(1, {});
  for (const char* name : {"one.eclg", "one.gr", "one.mtx"}) {
    SCOPED_TRACE(name);
    save_auto(g, path(name));
    const Graph back = load_auto(path(name));
    EXPECT_EQ(back.num_vertices(), 1u);
    EXPECT_EQ(back.num_edges(), 0u);
    EXPECT_EQ(count_components(back), 1u);
  }
}

TEST_F(IoTest, EdgeListRoundTripPreservesStructure) {
  // gen_path's sorted edge list appears in identity order, so even ID
  // compaction is the identity and the round trip is exact.
  const Graph g = gen_path(50);
  save_edge_list(g, path("path.txt"));
  expect_identical(load_auto(path("path.txt")), g);

  // A skewed generated graph keeps its non-singleton component structure;
  // isolated vertices (which an edge list cannot represent) are dropped.
  const Graph k = gen_kronecker(8, 8, 5);
  vertex_t isolated = 0;
  for (vertex_t v = 0; v < k.num_vertices(); ++v) {
    if (k.degree(v) == 0) ++isolated;
  }
  save_edge_list(k, path("kron.txt"));
  const Graph back = load_auto(path("kron.txt"));
  EXPECT_EQ(back.num_vertices(), k.num_vertices() - isolated);
  EXPECT_EQ(back.num_edges(), k.num_edges());
  EXPECT_EQ(count_components(back), count_components(k) - isolated);
}

TEST_F(IoTest, TextWritersEmitLoadableHeaders) {
  const Graph g = build_graph(3, std::vector<Edge>{{0, 1}});
  std::ostringstream gr;
  write_dimacs(g, gr);
  EXPECT_NE(gr.str().find("p sp 3 1"), std::string::npos);
  std::ostringstream mtx;
  write_matrix_market(g, mtx);
  EXPECT_NE(mtx.str().find("%%MatrixMarket matrix coordinate pattern symmetric"),
            std::string::npos);
  EXPECT_NE(mtx.str().find("3 3 1"), std::string::npos);
  std::ostringstream txt;
  write_edge_list(g, txt);
  EXPECT_NE(txt.str().find("1 0"), std::string::npos);  // larger-first order
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW((void)load_edge_list(path("nope.txt")), std::runtime_error);
  EXPECT_THROW((void)load_binary(path("nope.eclg")), std::runtime_error);
}

// ------------------------------------------------- hostile/truncated input ----
// Loaders must fail with a clear error — never crash, hang, or attempt a
// header-driven multi-GiB allocation — on truncated or adversarial files
// (docs/ROBUSTNESS.md "Input hardening").

TEST_F(IoTest, EdgeListRejectsTruncatedFinalLine) {
  // File cut mid-record: the second line lost its endpoint.
  std::istringstream in("1 2\n3");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST_F(IoTest, EdgeListRejectsNonNumericTokens) {
  std::istringstream nan_line("1 2\nx y\n");
  EXPECT_THROW((void)read_edge_list(nan_line), std::runtime_error);
}

TEST_F(IoTest, DimacsRejectsVertexCountOverflow) {
  // 2^33 vertices cannot be represented in 32-bit vertex ids; silently
  // truncating the count would alias vertex ids instead of failing.
  std::istringstream in("p sp 8589934592 1\na 1 2 1\n");
  EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
}

TEST_F(IoTest, DimacsSurvivesHostileEdgeCountClaim) {
  // A tiny file claiming 10^18 edges must not pre-allocate 16 EB; the
  // declared count only seeds a capped reserve and parsing proceeds.
  std::istringstream in("p sp 4 1000000000000000000\na 1 2 1\n");
  const Graph g = read_dimacs(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(IoTest, DimacsRejectsNonNumericProblemLine) {
  std::istringstream in("p sp four three\n");
  EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketRejectsVertexCountOverflow) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "8589934592 8589934592 1\n"
      "1 2\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketSurvivesHostileEntryCountClaim) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 1000000000000000000\n"
      "1 2\n");
  const Graph g = read_matrix_market(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(IoTest, BinaryRejectsHeaderDeclaringMoreThanFileHolds) {
  // Honest magic, hostile sizes: n and m each claim far more payload than
  // the file contains. Both must fail before any allocation is attempted.
  const std::uint64_t magic = 0x45434c4347313041ULL;  // "ECLCG10A"
  {
    std::ofstream out(path("hostile_n.eclg"), std::ios::binary);
    const std::uint64_t n = 0xFFFFFFF0ull, m = 0;
    out.write(reinterpret_cast<const char*>(&magic), 8);
    out.write(reinterpret_cast<const char*>(&n), 8);
    out.write(reinterpret_cast<const char*>(&m), 8);
  }
  EXPECT_THROW((void)load_binary(path("hostile_n.eclg")), std::runtime_error);
  {
    std::ofstream out(path("hostile_m.eclg"), std::ios::binary);
    const std::uint64_t n = 1, m = 1ull << 40;
    const std::uint64_t offsets[2] = {0, 0};
    out.write(reinterpret_cast<const char*>(&magic), 8);
    out.write(reinterpret_cast<const char*>(&n), 8);
    out.write(reinterpret_cast<const char*>(&m), 8);
    out.write(reinterpret_cast<const char*>(offsets), 16);
  }
  EXPECT_THROW((void)load_binary(path("hostile_m.eclg")), std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsVertexCountOverflow) {
  const std::uint64_t magic = 0x45434c4347313041ULL;
  std::ofstream out(path("overflow.eclg"), std::ios::binary);
  const std::uint64_t n = 1ull << 33, m = 0;
  out.write(reinterpret_cast<const char*>(&magic), 8);
  out.write(reinterpret_cast<const char*>(&n), 8);
  out.write(reinterpret_cast<const char*>(&m), 8);
  out.close();
  EXPECT_THROW((void)load_binary(path("overflow.eclg")), std::runtime_error);
}

TEST_F(IoTest, LoadedGraphsWorkWithEclCc) {
  // End-to-end: a graph written to disk, reloaded, and labeled must match
  // the original's components.
  const Graph g = gen_web_graph(2000, 5);
  save_binary(g, path("e2e.eclg"));
  const Graph loaded = load_binary(path("e2e.eclg"));
  EXPECT_EQ(reference_components(loaded), reference_components(g));
}

}  // namespace
}  // namespace ecl
