// Deterministic pseudo-random number generation for reproducible simulation.
//
// The simulator must produce bit-identical runs for a given seed across
// platforms, so we implement xoshiro256** (Blackman & Vigna) seeded through
// splitmix64 instead of relying on the implementation-defined distributions
// of <random>. All distribution helpers (uniform doubles, bounded integers,
// Bernoulli trials, sampling without replacement) are implemented here with
// fully specified algorithms.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contract.hpp"

namespace pmc {

/// splitmix64 — used to stretch a single 64-bit seed into the 256-bit
/// xoshiro state, and to derive independent child seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — the simulator's workhorse generator.
/// Satisfies UniformRandomBitGenerator so it can also feed <random> if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9d1ef5a3c0ffee42ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) via Lemire's nearly-divisionless method.
  /// Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Standard normal deviate via Acklam's rational inverse-CDF
  /// approximation of a single uniform draw (no rejection loop, so the
  /// draw count per call is fixed — one — which labeled streams rely on).
  /// The polynomial is fully specified here; the only libm calls are
  /// std::sqrt (IEEE correctly rounded) and std::log, whose last-ulp
  /// variance across libms is far below the integer rounding every
  /// consumer applies (sim-time latencies), so replays stay byte-identical
  /// in practice and exactly on any one toolchain.
  double next_normal() noexcept;

  /// Derive an independent generator (for per-process / per-run streams).
  Rng split() noexcept { return Rng(next_u64()); }

  /// k distinct indices drawn uniformly from [0, n) without replacement,
  /// in selection order: a partial Fisher-Yates shuffle of [0, n), one
  /// next_below(n - i) per pick. Precondition: k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);
  /// The same draws and indices, written into `out` (cleared first), so a
  /// per-period caller reuses one buffer; a 32-bit one (n <= 2^32) can be
  /// the buffer the caller then turns into its targets. Up to
  /// kSparseSample picks touch only the positions the shuffle moves, not
  /// an n-sized index vector. Defined for std::size_t and std::uint32_t.
  template <typename Index>
  void sample_without_replacement(std::size_t n, std::size_t k,
                                  std::vector<Index>& out);
  /// The most picks the sparse shuffle takes; more run the dense one.
  static constexpr std::size_t kSparseSample = 16;

 private:
  std::uint64_t state_[4]{};
};

}  // namespace pmc
