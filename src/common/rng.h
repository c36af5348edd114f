// Small, fast, deterministic random number generators.
//
// Graph generation must be reproducible across runs and platforms, so we
// avoid std::mt19937 (whose distributions are not portable) and implement
// splitmix64 for seeding and xoshiro256** as the workhorse generator,
// together with portable integer-range and real distributions.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace ecl {

/// splitmix64: used to expand a single 64-bit seed into generator state.
/// Reference: Sebastiano Vigna, public domain.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast general-purpose 64-bit PRNG with 2^256-1 period.
/// Reference: Blackman & Vigna, public domain.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;
  using State = std::array<std::uint64_t, 4>;

  explicit constexpr Xoshiro256(std::uint64_t seed) : state_{} {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  constexpr result_type operator()() { return next(); }

  constexpr std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advances the state exactly as `k` calls to next() would, in O(log k),
  /// so that one stream can be split into slices drawn on different threads.
  constexpr void discard(std::uint64_t k) {
    // The step is a linear map T on GF(2)^256, and kCharPoly(T) = 0
    // (Cayley-Hamilton), so T^k = R(T) with R = x^k mod kCharPoly. Find R by
    // square-and-multiply, then sum the states T^i(s) whose coefficient of
    // x^i in R is set, as Blackman & Vigna's jump() does for k = 2^128.
    Poly r{1, 0, 0, 0};
    for (int bit = 63 - std::countl_zero(k); bit >= 0; --bit) {
      r = mul_mod(r, r);
      if ((k >> bit) & 1) r = times_x(r);
    }
    std::array<std::uint64_t, 4> sum{};
    for (int i = 0; i < 256; ++i) {
      if ((r[i / 64] >> (i % 64)) & 1) {
        for (int w = 0; w < 4; ++w) sum[w] ^= state_[w];
      }
      next();
    }
    state_ = sum;
  }

  /// The four state words, for a loop that steps several streams in
  /// lock-step (gen_rmat's lanes).
  [[nodiscard]] constexpr const State& state() const { return state_; }

  friend constexpr bool operator==(const Xoshiro256&, const Xoshiro256&) = default;

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift reduction;
  /// the tiny modulo bias is irrelevant for graph generation and the method
  /// is fully portable.
  constexpr std::uint64_t bounded(std::uint64_t bound) {
    const auto wide =
        static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(bound);
    return static_cast<std::uint64_t>(wide >> 64);
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// A polynomial over GF(2) of degree < 256: bit i holds the coefficient
  /// of x^i.
  using Poly = std::array<std::uint64_t, 4>;

  /// The step's characteristic polynomial, x^256 + kCharPoly, which is
  /// primitive (period 2^256 - 1). Found by Berlekamp-Massey on the sequence
  /// of one state bit; x^(2^128) mod it is the reference jump() polynomial.
  static constexpr Poly kCharPoly = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                                     0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

  /// a * x mod (x^256 + kCharPoly).
  static constexpr Poly times_x(Poly a) {
    const bool carry = (a[3] >> 63) != 0;
    for (int w = 3; w > 0; --w) a[w] = (a[w] << 1) | (a[w - 1] >> 63);
    a[0] <<= 1;
    if (carry) {
      for (int w = 0; w < 4; ++w) a[w] ^= kCharPoly[w];
    }
    return a;
  }

  /// a * b mod (x^256 + kCharPoly), by Horner's rule over b's coefficients.
  static constexpr Poly mul_mod(const Poly& a, const Poly& b) {
    Poly r{};
    for (int i = 255; i >= 0; --i) {
      r = times_x(r);
      if ((b[i / 64] >> (i % 64)) & 1) {
        for (int w = 0; w < 4; ++w) r[w] ^= a[w];
      }
    }
    return r;
  }

  State state_;
};

}  // namespace ecl
