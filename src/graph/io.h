// Graph file I/O.
//
// The paper pulls inputs from four repositories (SNAP, SMC, DIMACS, Galois)
// with different on-disk formats; like the authors ("we changed the code
// that reads in the input graph or wrote graph converters", §4) we support
// each format plus a fast binary CSR container:
//
//   * SNAP / plain edge list: one "u v" pair per line, '#' comments.
//   * DIMACS challenge 9 (.gr): "c" comments, "p sp <n> <m>" header,
//     "a <u> <v> <w>" arcs, 1-based vertices.
//   * MatrixMarket coordinate (.mtx): "%%MatrixMarket" header, "%" comments,
//     "<rows> <cols> <nnz>" size line, 1-based entries.
//   * ECL binary (.eclg): little-endian [magic, n, m, offsets, adjacency].
//
// Every text loader conditions its input through build_graph, the paper's
// fixed preprocessing (§4, see graph/builder.h): loops and parallel edges
// are dropped and missing back edges added, since ECL-CC handles each
// undirected edge once, from its larger endpoint. The binary container is an
// exact round trip of a graph that was conditioned when it was built.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace ecl {

/// Loads a SNAP-style edge list. Vertex IDs are compacted to [0, n).
/// Throws std::runtime_error on unreadable/malformed input.
[[nodiscard]] Graph load_edge_list(const std::string& path);
[[nodiscard]] Graph read_edge_list(std::istream& in);

/// Loads a DIMACS challenge-9 .gr file (edge weights are ignored; CC does
/// not use them). Throws std::runtime_error on malformed input.
[[nodiscard]] Graph load_dimacs(const std::string& path);
[[nodiscard]] Graph read_dimacs(std::istream& in);

/// Loads a MatrixMarket coordinate-format sparse matrix as a graph
/// (pattern/real/integer; values ignored). Throws on malformed input.
[[nodiscard]] Graph load_matrix_market(const std::string& path);
[[nodiscard]] Graph read_matrix_market(std::istream& in);

/// Binary CSR container: exact round-trip of the in-memory representation.
void save_binary(const Graph& g, const std::string& path);
[[nodiscard]] Graph load_binary(const std::string& path);

// Writers for the text formats, mirroring the loaders above. Each
// undirected edge is emitted once (as "larger smaller"); since DIMACS and
// MatrixMarket headers carry the vertex count, those two formats round-trip
// isolated vertices and the empty graph exactly. The edge-list format has
// no header, so isolated vertices are lost and IDs are re-compacted on
// load — an edge-list round trip preserves connectivity structure only.

/// SNAP-style edge list: '#' header comment, one "u v" line per edge.
void save_edge_list(const Graph& g, const std::string& path);
void write_edge_list(const Graph& g, std::ostream& out);

/// DIMACS challenge-9 .gr: "p sp <n> <m>" header, 1-based "a u v 1" arcs.
void save_dimacs(const Graph& g, const std::string& path);
void write_dimacs(const Graph& g, std::ostream& out);

/// MatrixMarket coordinate pattern symmetric, 1-based entries.
void save_matrix_market(const Graph& g, const std::string& path);
void write_matrix_market(const Graph& g, std::ostream& out);

/// Dispatches on file extension: .gr -> DIMACS, .mtx -> MatrixMarket,
/// .eclg -> binary, anything else -> edge list.
[[nodiscard]] Graph load_auto(const std::string& path);

/// Writer twin of load_auto: picks the format from the extension.
void save_auto(const Graph& g, const std::string& path);

}  // namespace ecl
