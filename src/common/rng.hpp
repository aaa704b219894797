#pragma once

// Deterministic random number generation.
//
// Everything stochastic in taskpart (forest bagging, MLP init, synthetic
// workload data, noise injection) draws from tp::common::Rng so that runs
// are reproducible bit-for-bit from a seed. The generator is xoshiro256**,
// which is fast, has 256-bit state and passes BigCrush.
//
// Its state transition is linear over GF(2), so discard(k) jumps k steps
// ahead in O(log k) matrix-vector products (Haramoto et al., "Efficient
// jump ahead for F2-linear random number generators", 2008) instead of
// stepping k times.

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace tp::common {

class Rng {
public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initialize state from a 64-bit seed via splitmix64 expansion.
  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& s : state_) {
      // splitmix64 step
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() {
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

  /// Advance the state exactly k steps, as k calls of operator() would,
  /// without producing the outputs. Small k steps; larger k applies one
  /// precomputed power T^(2^j) of the 256x256 bit transition matrix per
  /// set bit of k. The 64 powers (512 KB) are built once per process, on
  /// the first large jump (rng.cpp).
  void discard(std::uint64_t k);

  friend bool operator==(const Rng&, const Rng&) = default;

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    TP_ASSERT(n > 0);
    // Lemire's multiply-shift rejection method (unbiased).
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Any span, up to the full
  /// int64 range, which takes one raw draw.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    TP_ASSERT(lo <= hi);
    // Unsigned arithmetic: hi - lo overflows int64 for spans over INT64_MAX.
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    const std::uint64_t offset = span == max() ? (*this)() : below(span + 1);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
  }

  /// Standard normal via Box-Muller.
  double gaussian() {
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return r * std::cos(6.283185307179586 * u2);
  }

  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

  /// Derive an independent child generator (for per-task streams).
  Rng split() { return Rng((*this)()); }

private:
  struct JumpTable;  // rng.cpp: the powers T^(2^j) used by discard()

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace tp::common
