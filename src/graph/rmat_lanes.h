// gen_rmat's edge descent, written once with GCC vector extensions for any
// number of lanes, so that one body serves the default build's two lanes,
// AVX2's four and the one-lane remainder after either. Private to gen_rmat,
// its tests and its micro-benchmark.
//
// Every function here is always_inline: gen_rmat instantiates them inside a
// target("avx2") function, and only inlining compiles them for that ISA. No
// function takes or returns a vector by value, because a 32-byte vector
// passed without AVX enabled changes the ABI (-Wpsabi).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "common/rng.h"
#include "common/types.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace ecl::rmat {

/// The three ascending quadrant thresholds a, a + b and a + b + c, with the
/// probabilities scaled to sum to 1. The parameters must already be checked
/// to be non-negative with a positive finite sum.
struct Thresholds {
  double a;
  double ab;
  double abc;

  static Thresholds of(const RmatParams& p) {
    const double total = p.a + p.b + p.c + p.d;
    const double pa = p.a / total;
    const double pb = p.b / total;
    const double pc = p.c / total;
    return {pa, pa + pb, pa + pb + pc};
  }
};

/// descend<Lanes>'s vectors. A typedef in a class template, because GCC drops
/// a dependent vector_size from an alias declaration.
template <int Lanes>
struct Vectors {
  typedef std::uint64_t U64 __attribute__((vector_size(8 * Lanes)));
  typedef double F64 __attribute__((vector_size(8 * Lanes)));
};

/// One Xoshiro256::next() on each lane of the four state words `s`, turned
/// into [0, 1) exactly as Xoshiro256::uniform() does.
template <class U64, class F64>
[[gnu::always_inline]] inline void next_uniform(U64 (&s)[4], F64& out) {
  // rotl(s1 * 5, 7) * 9, the multiplies as shift-adds: AVX2 has no 64-bit
  // lane multiply.
  const U64 x = (s[1] << 2) + s[1];
  const U64 rot = (x << 7) | (x >> 57);
  const U64 result = (rot << 3) + rot;
  const U64 t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = (s[3] << 45) | (s[3] >> 19);
  // AVX2 has no 64-bit integer to double conversion either. The top 53 bits
  // split into hi (21 bits) and lo (32 bits), placed in the mantissas of
  // 2^84 + hi * 2^32 and 2^52 + lo. Subtracting 2^84 + 2^52 from the first
  // and adding the second are both exact, so the sum is the integer itself,
  // as static_cast<double> gives it.
  const U64 bits = result >> 11;
  const U64 hi = (bits >> 32) | 0x4530000000000000ull;
  const U64 lo = (bits & 0xffffffffull) | 0x4330000000000000ull;
  const F64 whole =
      (__builtin_bit_cast(F64, hi) - (0x1p84 + 0x1p52)) + __builtin_bit_cast(F64, lo);
  out = whole * 0x1.0p-53;
}

/// Draws `count` edges on each of `Lanes` streams in lock-step: lane k starts
/// from states[k] and writes out[k * stride + i] for i < count. Each edge
/// draws 2 * scale numbers, and states[k] is left just past lane k's edges.
template <int Lanes>
[[gnu::always_inline]] inline void descend(Xoshiro256::State* states, int scale,
                                           const Thresholds& t, Edge* out, edge_t stride,
                                           edge_t count) {
  using U64 = typename Vectors<Lanes>::U64;
  using F64 = typename Vectors<Lanes>::F64;
  // Word w of every lane's state is vector s[w].
  std::uint64_t words[4][Lanes];
  for (int w = 0; w < 4; ++w) {
    for (int k = 0; k < Lanes; ++k) words[w][k] = states[k][w];
  }
  U64 s[4];
  static_assert(sizeof s == sizeof words);
  std::memcpy(s, words, sizeof s);
  for (edge_t i = 0; i < count; ++i) {
    U64 u = {};
    U64 v = {};
    for (int bit = scale - 1; bit >= 0; --bit) {
      // Recursively descend into one of the four adjacency-matrix quadrants
      // with a little noise per level, as in the Graph500 reference code, so
      // the degree distribution stays heavy-tailed instead of collapsing.
      // The quadrant is the number of ascending thresholds r reaches: 0
      // top-left, 1 top-right (v bit), 2 bottom-left (u bit), 3 both bits.
      // Branch-free: the outcome is random at every level. The noise is a
      // multiply then an add, never a fused multiply-add, so every lane count
      // and ISA draws the same edges.
      F64 noise = {};
      F64 r = {};
      next_uniform(s, noise);
      noise = 0.9 + 0.2 * noise;
      next_uniform(s, r);
      const auto past_a = r >= t.a * noise;
      const auto past_b = r >= t.ab * noise;
      const auto past_c = r >= t.abc * noise;
      u |= (U64(past_b) & 1) << bit;
      v |= (U64(past_a ^ past_b ^ past_c) & 1) << bit;
    }
    for (int k = 0; k < Lanes; ++k) {
      out[k * stride + i] = Edge(static_cast<vertex_t>(u[k]), static_cast<vertex_t>(v[k]));
    }
  }
  std::memcpy(words, s, sizeof s);
  for (int w = 0; w < 4; ++w) {
    for (int k = 0; k < Lanes; ++k) states[k][w] = words[w][k];
  }
}

/// Draws `count` consecutive edges of `rng`'s stream, which starts at the
/// first of them, into out[0, count). The first count / Lanes * Lanes edges
/// are Lanes contiguous runs, each lane's stream jumped to its run; the
/// remainder is drawn on one lane from where the last lane stopped.
template <int Lanes>
[[gnu::always_inline]] inline void draw_edges(Xoshiro256 rng, int scale, const Thresholds& t,
                                              Edge* out, edge_t count) {
  const edge_t run = count / Lanes;
  Xoshiro256::State states[Lanes];
  for (int k = 0; k < Lanes; ++k) {
    if (k > 0) rng.discard(2 * static_cast<std::uint64_t>(scale) * run);
    states[k] = rng.state();
  }
  descend<Lanes>(states, scale, t, out, run, run);
  descend<1>(&states[Lanes - 1], scale, t, out + Lanes * run, 0, count - Lanes * run);
}

/// draw_edges at the lane count this CPU runs fastest: four where it has
/// AVX2, else two. Every lane count draws the same edges.
void draw_edges_for_cpu(Xoshiro256 rng, int scale, const Thresholds& t, Edge* out,
                        edge_t count);

}  // namespace ecl::rmat
