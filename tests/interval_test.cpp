#include "filter/interval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace pmc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Interval, ContainsRespectsBounds) {
  const Interval iv{1.0, 2.0, false, false};
  EXPECT_TRUE(iv.contains(1.0));
  EXPECT_TRUE(iv.contains(1.5));
  EXPECT_TRUE(iv.contains(2.0));
  EXPECT_FALSE(iv.contains(0.999));
  EXPECT_FALSE(iv.contains(2.001));
}

TEST(Interval, OpenBoundsExcludeEndpoints) {
  const Interval iv{1.0, 2.0, true, true};
  EXPECT_FALSE(iv.contains(1.0));
  EXPECT_FALSE(iv.contains(2.0));
  EXPECT_TRUE(iv.contains(1.5));
}

TEST(Interval, HalfOpen) {
  const Interval iv{0.25, 0.75, false, true};
  EXPECT_TRUE(iv.contains(0.25));
  EXPECT_FALSE(iv.contains(0.75));
}

TEST(Interval, PointInterval) {
  const auto iv = Interval::point(3.0);
  EXPECT_TRUE(iv.contains(3.0));
  EXPECT_FALSE(iv.contains(3.0000001));
  EXPECT_FALSE(iv.empty());
}

TEST(Interval, EmptyIntervals) {
  EXPECT_TRUE((Interval{2.0, 1.0, false, false}).empty());
  EXPECT_TRUE((Interval{1.0, 1.0, true, false}).empty());
  EXPECT_TRUE((Interval{1.0, 1.0, false, true}).empty());
  EXPECT_FALSE(Interval::point(1.0).empty());
}

TEST(Interval, Rays) {
  const auto ge = Interval::at_least(5.0);
  EXPECT_TRUE(ge.contains(5.0));
  EXPECT_TRUE(ge.contains(1e18));
  EXPECT_FALSE(ge.contains(4.999));
  const auto lt = Interval::at_most(5.0, /*open=*/true);
  EXPECT_FALSE(lt.contains(5.0));
  EXPECT_TRUE(lt.contains(-1e18));
}

TEST(Interval, AllContainsEverything) {
  const Interval all{};
  EXPECT_TRUE(all.contains(0.0));
  EXPECT_TRUE(all.contains(1e308));
  EXPECT_TRUE(all.contains(-1e308));
  EXPECT_EQ(all.lo, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(all.hi, std::numeric_limits<double>::infinity());
}

TEST(Interval, Intersect) {
  const Interval a{1.0, 5.0, false, false};
  const Interval b{3.0, 7.0, false, false};
  const auto i = a.intersect(b);
  EXPECT_DOUBLE_EQ(i.lo, 3.0);
  EXPECT_DOUBLE_EQ(i.hi, 5.0);
  EXPECT_FALSE(i.empty());
}

TEST(Interval, IntersectDisjointIsEmpty) {
  EXPECT_TRUE((Interval{1.0, 2.0, false, false})
                  .intersect(Interval{3.0, 4.0, false, false})
                  .empty());
}

TEST(Interval, IntersectOpenClosedBoundary) {
  const Interval a{0.0, 1.0, false, true};  // [0,1)
  const auto b = Interval::at_least(1.0);   // [1,inf)
  EXPECT_TRUE(a.intersect(b).empty());
}

TEST(Interval, Covers) {
  EXPECT_TRUE((Interval{0.0, 10.0, false, false})
                  .covers(Interval{1.0, 2.0, false, false}));
  EXPECT_FALSE((Interval{0.0, 10.0, false, false})
                   .covers(Interval{1.0, 11.0, false, false}));
  EXPECT_TRUE((Interval{0.0, 1.0, false, false})
                  .covers(Interval{0.0, 1.0, true, true}));
  EXPECT_FALSE((Interval{0.0, 1.0, true, true})
                   .covers(Interval{0.0, 1.0, false, false}));
}

TEST(Interval, MergeableTouchingClosed) {
  // [1,2] and [2,3] share the closed point 2.
  EXPECT_TRUE((Interval{1.0, 2.0, false, false})
                  .mergeable(Interval{2.0, 3.0, false, false}));
  // [1,2) and (2,3] leave 2 out.
  EXPECT_FALSE((Interval{1.0, 2.0, false, true})
                   .mergeable(Interval{2.0, 3.0, true, false}));
  // [1,2) and [2,3] together cover [1,3].
  EXPECT_TRUE((Interval{1.0, 2.0, false, true})
                  .mergeable(Interval{2.0, 3.0, false, false}));
}

TEST(Interval, MergeProducesHull) {
  const auto m =
      Interval{1.0, 2.0, false, false}.merge(Interval{1.5, 4.0, false, false});
  EXPECT_DOUBLE_EQ(m.lo, 1.0);
  EXPECT_DOUBLE_EQ(m.hi, 4.0);
}

TEST(Interval, LeVersusLtAtEqualEndpoints) {
  // [0,1] ∩ [1,2] is the point {1}; opening either side of the shared
  // endpoint empties it. Regrouping fuses Le/Lt (and Ge/Gt) atoms on one
  // attribute into one interval per clause, so these boundary cases decide
  // whether e.g. `c >= 1 && c <= 1` keeps a clause alive.
  EXPECT_FALSE((Interval{0.0, 1.0, false, false})
                   .intersect(Interval{1.0, 2.0, false, false})
                   .empty());
  EXPECT_TRUE((Interval{0.0, 1.0, false, true})  // [0,1)
                  .intersect(Interval{1.0, 2.0, false, false})
                  .empty());
  EXPECT_TRUE((Interval{0.0, 1.0, false, false})
                  .intersect(Interval{1.0, 2.0, true, false})  // (1,2]
                  .empty());
  const auto pt =
      Interval::at_least(1.0).intersect(Interval::at_most(1.0));  // {1}
  EXPECT_FALSE(pt.empty());
  EXPECT_TRUE(pt.contains(1.0));
  EXPECT_FALSE(pt.contains(1.0 + 1e-12));
}

TEST(Interval, CoversAndMergeableAtSharedOpenEndpoints) {
  // covers: (0,1) does not cover [0,1) (loses the point 0) but does cover
  // (0,1]∩(0,1) shapes; mergeable: [0,1) ∪ (1,2] leaves 1 out.
  const Interval zero_one{0.0, 1.0, false, true};  // [0,1)
  EXPECT_FALSE((Interval{0.0, 1.0, true, true}).covers(zero_one));
  EXPECT_TRUE(zero_one.covers(Interval{0.0, 1.0, true, true}));
  EXPECT_FALSE(zero_one.mergeable(Interval{1.0, 2.0, true, false}));
  EXPECT_TRUE(zero_one.mergeable(Interval::point(1.0)));
}

TEST(Interval, InvertedBoundsStayEmptyThroughOps) {
  const Interval inv{2.0, 1.0, false, false};
  EXPECT_TRUE(inv.empty());
  EXPECT_FALSE(inv.contains(1.5));
  EXPECT_TRUE(inv.intersect(Interval{}).empty());
  // Every interval covers the empty one; the empty one covers nothing
  // non-empty.
  EXPECT_TRUE(Interval{}.covers(inv));
  EXPECT_TRUE(Interval::point(7.0).covers(inv));
  EXPECT_FALSE(inv.covers(Interval::point(1.5)));
}

TEST(Interval, InfiniteEndpoints) {
  // Rays built from ±inf behave like all(); a closed bound AT +inf still
  // contains +inf (the event value +inf satisfies `c >= inf`).
  EXPECT_TRUE(Interval::at_least(-kInf).contains(-kInf));
  EXPECT_TRUE(Interval::at_least(kInf).contains(kInf));
  EXPECT_FALSE(Interval::at_least(kInf).contains(1e308));
  EXPECT_TRUE(Interval::at_least(kInf, /*open=*/true).empty())
      << "(inf, inf] holds no double";
  EXPECT_FALSE(Interval::at_most(kInf).empty());
  EXPECT_TRUE(Interval::at_most(-kInf, /*open=*/true).empty());
  EXPECT_TRUE(Interval{}.contains(kInf));
  EXPECT_TRUE(Interval{}.contains(-kInf));
}

TEST(Interval, ContainsNaNIsDeliberatelyTrue) {
  // Pinned on purpose, not a bug: contains() is written as two negated
  // bound checks, and every comparison against NaN is false, so NaN falls
  // through both and lands on `return true`. The regrouping layer relies
  // on this as conservative over-coverage — a delegate's merged interval
  // table must never produce a false NEGATIVE for a child's subscription,
  // and NaN-valued events are handled (rejected or matched exactly) by
  // Predicate::match / the index's NaN-aware lanes, both of which skip
  // interval containment for NaN. If this ever flips to false, regroup
  // coverage and the index's eq/interval lane skip logic must be
  // re-audited together.
  EXPECT_TRUE((Interval{0.0, 1.0, false, false}).contains(kNaN));
  EXPECT_TRUE((Interval{0.0, 1.0, true, true}).contains(kNaN));
  EXPECT_TRUE(Interval{}.contains(kNaN));
}

TEST(IntervalSet, InfiniteAndBoundaryMembers) {
  IntervalSet s;
  s.insert(Interval::at_most(0.0, /*open=*/true));  // (-inf, 0)
  s.insert(Interval::at_least(1.0));                // [1, inf)
  EXPECT_TRUE(s.contains(-kInf));
  EXPECT_TRUE(s.contains(kInf));
  EXPECT_FALSE(s.contains(0.0));
  EXPECT_FALSE(s.contains(0.999999));
  EXPECT_TRUE(s.contains(1.0));
  IntervalSet all;
  all.insert(Interval{});
  EXPECT_NE(s, all);
  s.insert(Interval{0.0, 1.0, false, false});  // plugs the gap
  EXPECT_EQ(s, all);
}

TEST(IntervalSet, InsertDisjointKeepsBoth) {
  IntervalSet s;
  s.insert(Interval{0.0, 1.0, false, false});
  s.insert(Interval{2.0, 3.0, false, false});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(0.5));
  EXPECT_FALSE(s.contains(1.5));
  EXPECT_TRUE(s.contains(2.5));
}

TEST(IntervalSet, InsertMergesOverlap) {
  IntervalSet s;
  s.insert(Interval{0.0, 2.0, false, false});
  s.insert(Interval{1.0, 3.0, false, false});
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(2.5));
}

TEST(IntervalSet, InsertBridgesGap) {
  IntervalSet s;
  s.insert(Interval{0.0, 1.0, false, false});
  s.insert(Interval{2.0, 3.0, false, false});
  s.insert(Interval{0.5, 2.5, false, false});  // bridges both
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(1.5));
}

TEST(IntervalSet, EmptyIntervalIgnored) {
  IntervalSet s;
  s.insert(Interval{2.0, 1.0, false, false});
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, KeepsSortedOrder) {
  IntervalSet s;
  s.insert(Interval{10.0, 11.0, false, false});
  s.insert(Interval{0.0, 1.0, false, false});
  s.insert(Interval{5.0, 6.0, false, false});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.intervals()[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(s.intervals()[1].lo, 5.0);
  EXPECT_DOUBLE_EQ(s.intervals()[2].lo, 10.0);
}

TEST(IntervalSet, ContainsBinarySearchEdges) {
  IntervalSet s;
  s.insert(Interval{0.0, 0.5, false, true});
  s.insert(Interval{0.75, 1.0, false, true});
  EXPECT_TRUE(s.contains(0.0));
  EXPECT_FALSE(s.contains(0.5));
  EXPECT_FALSE(s.contains(0.6));
  EXPECT_TRUE(s.contains(0.75));
  EXPECT_FALSE(s.contains(1.0));
  EXPECT_FALSE(s.contains(-0.1));
}

TEST(IntervalSet, InsertAllUnions) {
  IntervalSet a, b;
  a.insert(Interval{0.0, 1.0, false, false});
  b.insert(Interval{0.5, 2.0, false, false});
  b.insert(Interval{5.0, 6.0, false, false});
  a.insert_all(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.contains(1.7));
  EXPECT_TRUE(a.contains(5.5));
}

TEST(IntervalSet, CoversSet) {
  IntervalSet big;
  big.insert(Interval{0.0, 10.0, false, false});
  IntervalSet small;
  small.insert(Interval{1.0, 2.0, false, false});
  small.insert(Interval{8.0, 9.0, false, false});
  EXPECT_TRUE(big.covers(small));
  EXPECT_FALSE(small.covers(big));
}

TEST(IntervalSet, CoverageAcrossGapIsRejected) {
  IntervalSet gappy;
  gappy.insert(Interval{0.0, 1.0, false, false});
  gappy.insert(Interval{2.0, 3.0, false, false});
  // [0,3] is not covered: the gap (1,2) leaks.
  EXPECT_FALSE(gappy.covers(Interval{0.0, 3.0, false, false}));
  EXPECT_TRUE(gappy.covers(Interval{0.2, 0.8, false, false}));
}

TEST(IntervalSet, BoundingHull) {
  IntervalSet s;
  s.insert(Interval{1.0, 2.0, false, false});
  s.insert(Interval{5.0, 7.0, false, true});
  const auto b = s.bounding();
  EXPECT_DOUBLE_EQ(b.lo, 1.0);
  EXPECT_DOUBLE_EQ(b.hi, 7.0);
  EXPECT_TRUE(b.hi_open);
}

/// Equality down to the bits (== takes -0.0 for +0.0).
bool same_bits(const IntervalSet& x, const IntervalSet& y) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return std::equal(x.intervals().begin(), x.intervals().end(),
                    y.intervals().begin(), y.intervals().end(),
                    [&](const Interval& a, const Interval& b) {
                      return bits(a.lo) == bits(b.lo) &&
                             bits(a.hi) == bits(b.hi) &&
                             a.lo_open == b.lo_open && a.hi_open == b.hi_open;
                    });
}

/// Sorted, disjoint, and no two neighbours mergeable.
void expect_canonical(const IntervalSet& s) {
  const auto& ivs = s.intervals();
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    EXPECT_FALSE(ivs[i].empty());
    if (i == 0) continue;
    EXPECT_LE(ivs[i - 1].hi, ivs[i].lo) << s.to_string();
    EXPECT_FALSE(ivs[i - 1].mergeable(ivs[i])) << s.to_string();
  }
}

TEST(IntervalSet, EveryInsertionOrderGivesOneCanonicalSet) {
  // Endpoints from a small grid collide often (both zeros and both
  // infinities among them), each bound open or closed at random.
  const std::vector<double> grid{-kInf, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, kInf};
  std::vector<double> probes = grid;  // every grid point and a midpoint
  for (const double x : {-2.0, -0.5, 0.5, 1.5, 2.5, 4.0}) probes.push_back(x);
  Rng rng(34);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Interval> ivs(1 + rng.next_below(7));
    for (auto& iv : ivs) {
      double lo = grid[rng.next_below(grid.size())];
      double hi = grid[rng.next_below(grid.size())];
      if (hi < lo) std::swap(lo, hi);
      iv = Interval{lo, hi, rng.bernoulli(0.5), rng.bernoulli(0.5)};
    }
    IntervalSet forward, backward, shuffled, singles;
    for (const auto& iv : ivs) forward.insert(iv);
    for (auto it = ivs.rbegin(); it != ivs.rend(); ++it) backward.insert(*it);
    auto order = ivs;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next_below(i)]);
    for (const auto& iv : order) shuffled.insert(iv);
    for (const auto& iv : ivs) singles.insert_all(IntervalSet(iv));
    // Two halves, each inserted one by one, then one merge: bit for bit
    // what inserting the second half's intervals into the first gives.
    const std::size_t half = rng.next_below(ivs.size() + 1);
    IntervalSet left, right;
    for (std::size_t i = 0; i < ivs.size(); ++i)
      (i < half ? left : right).insert(ivs[i]);
    IntervalSet merged = left;
    merged.insert_all(right);
    IntervalSet one_by_one = left;
    for (const auto& iv : right.intervals()) one_by_one.insert(iv);
    EXPECT_TRUE(same_bits(merged, one_by_one))
        << merged.to_string() << " vs " << one_by_one.to_string();

    expect_canonical(forward);
    for (const IntervalSet* other : {&backward, &shuffled, &singles, &merged})
      EXPECT_EQ(*other, forward) << other->to_string() << " vs "
                                 << forward.to_string();
    for (const double x : probes) {
      const bool any = std::any_of(ivs.begin(), ivs.end(),
                                   [x](const Interval& iv) {
                                     return iv.contains(x);
                                   });
      EXPECT_EQ(forward.contains(x), any) << x << " in " << forward.to_string();
    }
  }
}

TEST(IntervalSet, EqualityIsCanonical) {
  IntervalSet a, b;
  a.insert(Interval{0.0, 1.0, false, false});
  a.insert(Interval{1.0, 2.0, false, false});
  b.insert(Interval{0.0, 2.0, false, false});
  EXPECT_EQ(a, b);  // both canonicalize to [0,2]
}

}  // namespace
}  // namespace pmc
