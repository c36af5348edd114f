// Deterministic synthetic graph generators.
//
// The paper evaluates on 18 graphs drawn from a few structural families
// (road maps, grids, web crawls, social/citation networks, RMAT/Kronecker,
// uniform random, triangulations, internet topologies). We cannot ship the
// original datasets, so each family gets a generator that reproduces the
// properties that drive CC performance: diameter, degree distribution, and
// component structure. All generators are deterministic in (parameters,
// seed) and emit conditioned (undirected, loop-free, deduplicated, sorted)
// graphs. Most condition an edge list with build_graph; gen_grid2d,
// gen_road_network and gen_web_graph write the same conditioned CSR
// directly, in blocks of lattice rows or sites that every CPU of the
// caller's mask claims, and a test pins their output bit for bit to
// build_graph's on the edges they used to list.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace ecl {

/// rows x cols 4-neighbor mesh ("2d-2e20.sym"): degree <= 4, one component,
/// huge diameter — stresses pointer jumping depth. Each block of rows knows
/// where its lists start, so every CPU in the caller's mask writes blocks.
[[nodiscard]] Graph gen_grid2d(vertex_t rows, vertex_t cols);

/// Uniform random multigraph with ~`num_undirected_edges` edges
/// ("r4-2e23.sym"): low diameter, near-constant degree.
[[nodiscard]] Graph gen_uniform_random(vertex_t n, edge_t num_undirected_edges,
                                       std::uint64_t seed);

/// Recursive-matrix (R-MAT) generator (Chakrabarti et al.), the family of
/// "rmat16.sym"/"rmat22.sym" and — with the Graph500 parameter set — of
/// "kron_g500-logn21": skewed degrees, many tiny components, isolated
/// vertices (dmin = 0 in the paper's Table 2).
struct RmatParams {
  double a = 0.45;
  double b = 0.22;
  double c = 0.22;
  double d = 0.11;
};
/// Draws its edges on every CPU in the caller's affinity mask: up to 32
/// chunks, their count set by the edge count alone, each drawn by whichever
/// CPU claims it (for_each_claimed) from the seed's stream jumped ahead to
/// the chunk (Xoshiro256::discard), so the graph is the same under any mask.
/// Within a chunk it descends several edges at once, each lane from the
/// stream jumped to its own run: four lanes on a CPU with AVX2, picked at run
/// time, else two. Neither build uses FMA, so the graph is also the same on
/// every x86-64 CPU. build_graph conditions the edges, on the same CPUs.
[[nodiscard]] Graph gen_rmat(int scale, edge_t edge_factor, const RmatParams& params,
                             std::uint64_t seed);

/// Graph500 Kronecker parameters (a=0.57, b=0.19, c=0.19, d=0.05); gen_rmat,
/// so also run on every CPU in the caller's mask and lane-parallel, and
/// independent of the mask and the CPU.
[[nodiscard]] Graph gen_kronecker(int scale, edge_t edge_factor, std::uint64_t seed);

/// Road-map-like graph ("europe_osm", "USA-road-d.*"): vertices embedded on
/// a jittered grid, edges to a few nearest neighbors; degree ~2-4, very
/// long paths, single giant component. Each row's draw count is fixed by
/// its position, so every CPU in the caller's mask draws and writes blocks
/// of rows, each from the seed's stream jumped to the block's first row:
/// the graph is the same under any mask.
[[nodiscard]] Graph gen_road_network(vertex_t n, std::uint64_t seed);

/// Preferential-attachment (Barabasi-Albert) graph ("amazon0601",
/// "as-skitter" style): heavy-tailed degrees, small diameter.
[[nodiscard]] Graph gen_preferential_attachment(vertex_t n, vertex_t edges_per_vertex,
                                                std::uint64_t seed);

/// Citation-style graph ("citationCiteseer", "cit-Patents", "coPapersDBLP"):
/// each new vertex links to a mix of recent and popular earlier vertices;
/// moderately skewed degrees, possibly many components (cit-Patents has
/// 3627).
[[nodiscard]] Graph gen_citation(vertex_t n, vertex_t refs_per_vertex, double recency_bias,
                                 std::uint64_t seed);

/// Web-crawl-like graph ("in-2004", "uk-2002"): host-level clustering with
/// very high-degree hub pages, plus a sprinkling of isolated vertices and
/// small disconnected sites. The sites are drawn serially; then every CPU
/// in the caller's mask sorts the links between sites and writes the CSR,
/// in blocks of sites.
[[nodiscard]] Graph gen_web_graph(vertex_t n, std::uint64_t seed);

/// Planar-triangulation-like graph ("delaunay_n24"): grid triangulated with
/// diagonals; degree ~6, planar-scale diameter, single component.
[[nodiscard]] Graph gen_delaunay_like(vertex_t rows, vertex_t cols);

}  // namespace ecl
