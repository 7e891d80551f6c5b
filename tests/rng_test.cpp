#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

namespace pmc {
namespace {

TEST(SplitMix64, KnownSequenceFromZeroSeed) {
  // Reference values for splitmix64 seeded with 0 (public test vectors).
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng r(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(4);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng r(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextBelowUniformity) {
  Rng r(11);
  constexpr std::uint64_t kBuckets = 8;
  std::vector<int> counts(kBuckets, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[r.next_below(kBuckets)];
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c), n / 8.0, n / 8.0 * 0.1);
}

TEST(Rng, NextInInclusiveRange) {
  Rng r(21);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r(32);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng r(41);
  const auto s = r.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  const std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (const auto v : s) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleAllIsPermutation) {
  Rng r(42);
  auto s = r.sample_without_replacement(10, 10);
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleZeroEmpty) {
  Rng r(43);
  EXPECT_TRUE(r.sample_without_replacement(5, 0).empty());
}

TEST(Rng, SampleTooManyThrows) {
  Rng r(44);
  EXPECT_THROW(r.sample_without_replacement(3, 4), std::logic_error);
}

/// The partial Fisher-Yates shuffle on a full index vector: the reference
/// sample_without_replacement must match draw for draw, at every k.
std::vector<std::size_t> dense_sample(Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::size_t>(rng.next_below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

TEST(Rng, SampleMatchesTheDenseShuffleDrawForDraw) {
  constexpr std::size_t kFast = Rng::kSparseSample;
  std::vector<std::size_t> buffer{99, 98, 97};  // stale contents are cleared
  std::vector<std::uint32_t> narrow{7};
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
        kFast, kFast + 1, std::size_t{40}, std::size_t{1000},
        std::size_t{100000}}) {
    const std::uint64_t seeds = n > 1000 ? 4 : 150;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      for (const std::size_t k :
           {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
            n / 2, kFast - 1, kFast, kFast + 1, n - 1, n}) {
        if (k > n) continue;
        Rng dense(seed), fresh(seed), reused(seed), narrowed(seed);
        const auto expected = dense_sample(dense, n, k);
        EXPECT_EQ(fresh.sample_without_replacement(n, k), expected)
            << "n=" << n << " k=" << k << " seed=" << seed;
        reused.sample_without_replacement(n, k, buffer);
        EXPECT_EQ(buffer, expected)
            << "n=" << n << " k=" << k << " seed=" << seed;
        narrowed.sample_without_replacement(n, k, narrow);
        EXPECT_TRUE(std::ranges::equal(narrow, expected))
            << "n=" << n << " k=" << k << " seed=" << seed;
        // The same number of draws: the streams continue in step.
        const std::uint64_t next = dense.next_u64();
        EXPECT_EQ(fresh.next_u64(), next);
        EXPECT_EQ(reused.next_u64(), next);
        EXPECT_EQ(narrowed.next_u64(), next);
      }
    }
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(50);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (child1.next_u64() == child2.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace pmc
