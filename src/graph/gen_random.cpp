// Randomized generators: uniform random and R-MAT/Kronecker.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/claim.h"
#include "common/rng.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/rmat_lanes.h"

namespace ecl {

namespace rmat {
#if defined(__x86_64__) || defined(__i386__)
namespace {
[[gnu::target("avx2")]] void draw_edges_avx2(Xoshiro256 rng, int scale, const Thresholds& t,
                                             Edge* out, edge_t count) {
  draw_edges<4>(rng, scale, t, out, count);
}
}  // namespace
#endif

// The descent is ALU-bound. AVX2's 256-bit registers step four lanes at once;
// SSE2's 128-bit ones hold two, and four lanes there spill. Neither target
// enables FMA, so both draw the same edges.
void draw_edges_for_cpu(Xoshiro256 rng, int scale, const Thresholds& t, Edge* out,
                        edge_t count) {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return draw_edges_avx2(rng, scale, t, out, count);
#endif
  draw_edges<2>(rng, scale, t, out, count);
}
}  // namespace rmat

Graph gen_uniform_random(vertex_t n, edge_t num_undirected_edges, std::uint64_t seed) {
  if (n == 0) return Graph();
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(num_undirected_edges);
  for (edge_t e = 0; e < num_undirected_edges; ++e) {
    const auto u = static_cast<vertex_t>(rng.bounded(n));
    const auto v = static_cast<vertex_t>(rng.bounded(n));
    edges.emplace_back(u, v);
  }
  return build_graph(n, edges);
}

Graph gen_rmat(int scale, edge_t edge_factor, const RmatParams& p, std::uint64_t seed) {
  if (scale <= 0 || scale >= 31) throw std::invalid_argument("gen_rmat: bad scale");
  // `!(x >= 0)` also catches NaN. Non-negative probabilities keep the three
  // quadrant thresholds below in ascending order, which the descent needs.
  for (const double q : {p.a, p.b, p.c, p.d}) {
    if (!(q >= 0.0)) throw std::invalid_argument("gen_rmat: negative or NaN probability");
  }
  const double total = p.a + p.b + p.c + p.d;
  if (total <= 0.0 || !std::isfinite(total)) {
    throw std::invalid_argument("gen_rmat: bad probabilities");
  }

  const vertex_t n = vertex_t{1} << scale;
  const edge_t m = edge_factor * static_cast<edge_t>(n);
  const rmat::Thresholds thresholds = rmat::Thresholds::of(p);

  // Every edge draws exactly 2 * scale numbers, so the chunk starting at
  // edge lo draws from the seed's stream advanced by 2 * scale * lo: the
  // edges are the same however many chunks there are, and whichever CPU
  // draws each. A chunk of at least 2^16 edges (2^17 draws or more)
  // outweighs its jump, which costs about 256 draws plus 64 polynomial
  // products; the AVX2 loop jumps three more times per chunk, one per extra
  // lane. The count depends on m alone; up to 32 chunks let the CPUs of the
  // caller's mask even out their loads by claiming.
  constexpr edge_t kMinChunkEdges = edge_t{1} << 16;
  constexpr edge_t kMaxChunks = 32;
  const edge_t chunks = std::clamp<edge_t>(m / kMinChunkEdges, 1, kMaxChunks);
  const auto draws_per_edge = static_cast<std::uint64_t>(2 * scale);
  // Left unwritten, so the workers that draw each chunk fault its pages in.
  UninitVector<Edge> edges(m);
  for_each_claimed(chunks, [&](std::size_t c) {
    const edge_t lo = m * c / chunks;
    const edge_t hi = m * (c + 1) / chunks;
    Xoshiro256 rng(seed);
    rng.discard(draws_per_edge * lo);
    rmat::draw_edges_for_cpu(rng, scale, thresholds, edges.data() + lo, hi - lo);
  });
  return build_graph(n, edges);
}

Graph gen_kronecker(int scale, edge_t edge_factor, std::uint64_t seed) {
  return gen_rmat(scale, edge_factor, RmatParams{0.57, 0.19, 0.19, 0.05}, seed);
}

}  // namespace ecl
