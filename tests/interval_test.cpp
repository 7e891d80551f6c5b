#include "filter/interval.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace pmc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Interval, ContainsRespectsBounds) {
  const auto iv = Interval::closed(1.0, 2.0);
  EXPECT_TRUE(iv.contains(1.0));
  EXPECT_TRUE(iv.contains(1.5));
  EXPECT_TRUE(iv.contains(2.0));
  EXPECT_FALSE(iv.contains(0.999));
  EXPECT_FALSE(iv.contains(2.001));
}

TEST(Interval, OpenBoundsExcludeEndpoints) {
  const auto iv = Interval::open(1.0, 2.0);
  EXPECT_FALSE(iv.contains(1.0));
  EXPECT_FALSE(iv.contains(2.0));
  EXPECT_TRUE(iv.contains(1.5));
}

TEST(Interval, HalfOpen) {
  const auto iv = Interval::half_open(0.25, 0.75);
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
  const auto all = Interval::all();
  EXPECT_TRUE(all.contains(0.0));
  EXPECT_TRUE(all.contains(1e308));
  EXPECT_TRUE(all.contains(-1e308));
  EXPECT_TRUE(all.unbounded_above());
  EXPECT_TRUE(all.unbounded_below());
}

TEST(Interval, Intersect) {
  const auto a = Interval::closed(1.0, 5.0);
  const auto b = Interval::closed(3.0, 7.0);
  const auto i = a.intersect(b);
  EXPECT_DOUBLE_EQ(i.lo, 3.0);
  EXPECT_DOUBLE_EQ(i.hi, 5.0);
  EXPECT_FALSE(i.empty());
}

TEST(Interval, IntersectDisjointIsEmpty) {
  EXPECT_TRUE(Interval::closed(1.0, 2.0)
                  .intersect(Interval::closed(3.0, 4.0))
                  .empty());
}

TEST(Interval, IntersectOpenClosedBoundary) {
  const auto a = Interval::half_open(0.0, 1.0);  // [0,1)
  const auto b = Interval::at_least(1.0);        // [1,inf)
  EXPECT_TRUE(a.intersect(b).empty());
}

TEST(Interval, Covers) {
  EXPECT_TRUE(Interval::closed(0.0, 10.0).covers(Interval::closed(1.0, 2.0)));
  EXPECT_FALSE(Interval::closed(0.0, 10.0).covers(Interval::closed(1.0, 11.0)));
  EXPECT_TRUE(Interval::closed(0.0, 1.0).covers(Interval::open(0.0, 1.0)));
  EXPECT_FALSE(Interval::open(0.0, 1.0).covers(Interval::closed(0.0, 1.0)));
}

TEST(Interval, MergeableTouchingClosed) {
  // [1,2] and [2,3] share the closed point 2.
  EXPECT_TRUE(Interval::closed(1.0, 2.0).mergeable(Interval::closed(2.0, 3.0)));
  // [1,2) and (2,3] leave 2 out.
  EXPECT_FALSE(Interval::half_open(1.0, 2.0)
                   .mergeable(Interval{2.0, 3.0, true, false}));
  // [1,2) and [2,3] together cover [1,3].
  EXPECT_TRUE(Interval::half_open(1.0, 2.0)
                  .mergeable(Interval::closed(2.0, 3.0)));
}

TEST(Interval, MergeProducesHull) {
  const auto m =
      Interval::closed(1.0, 2.0).merge(Interval::closed(1.5, 4.0));
  EXPECT_DOUBLE_EQ(m.lo, 1.0);
  EXPECT_DOUBLE_EQ(m.hi, 4.0);
}

TEST(Interval, LeVersusLtAtEqualEndpoints) {
  // [0,1] ∩ [1,2] is the point {1}; opening either side of the shared
  // endpoint empties it. Regrouping fuses Le/Lt (and Ge/Gt) atoms on one
  // attribute into one interval per clause, so these boundary cases decide
  // whether e.g. `c >= 1 && c <= 1` keeps a clause alive.
  EXPECT_FALSE(
      Interval::closed(0.0, 1.0).intersect(Interval::closed(1.0, 2.0)).empty());
  EXPECT_TRUE(Interval::half_open(0.0, 1.0)  // [0,1)
                  .intersect(Interval::closed(1.0, 2.0))
                  .empty());
  EXPECT_TRUE(Interval::closed(0.0, 1.0)
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
  EXPECT_FALSE(Interval::open(0.0, 1.0).covers(Interval::half_open(0.0, 1.0)));
  EXPECT_TRUE(Interval::half_open(0.0, 1.0).covers(Interval::open(0.0, 1.0)));
  EXPECT_FALSE(Interval::half_open(0.0, 1.0)
                   .mergeable(Interval{1.0, 2.0, true, false}));
  EXPECT_TRUE(Interval::half_open(0.0, 1.0).mergeable(Interval::point(1.0)));
}

TEST(Interval, InvertedBoundsStayEmptyThroughOps) {
  const Interval inv{2.0, 1.0, false, false};
  EXPECT_TRUE(inv.empty());
  EXPECT_FALSE(inv.contains(1.5));
  EXPECT_TRUE(inv.intersect(Interval::all()).empty());
  // Every interval covers the empty one; the empty one covers nothing
  // non-empty.
  EXPECT_TRUE(Interval::all().covers(inv));
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
  EXPECT_TRUE(Interval::all().contains(kInf));
  EXPECT_TRUE(Interval::all().contains(-kInf));
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
  EXPECT_TRUE(Interval::closed(0.0, 1.0).contains(kNaN));
  EXPECT_TRUE(Interval::open(0.0, 1.0).contains(kNaN));
  EXPECT_TRUE(Interval::all().contains(kNaN));
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
  EXPECT_FALSE(s.is_all());
  s.insert(Interval::closed(0.0, 1.0));  // plugs the gap
  EXPECT_TRUE(s.is_all());
}

TEST(IntervalSet, InsertDisjointKeepsBoth) {
  IntervalSet s;
  s.insert(Interval::closed(0.0, 1.0));
  s.insert(Interval::closed(2.0, 3.0));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(0.5));
  EXPECT_FALSE(s.contains(1.5));
  EXPECT_TRUE(s.contains(2.5));
}

TEST(IntervalSet, InsertMergesOverlap) {
  IntervalSet s;
  s.insert(Interval::closed(0.0, 2.0));
  s.insert(Interval::closed(1.0, 3.0));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(2.5));
}

TEST(IntervalSet, InsertBridgesGap) {
  IntervalSet s;
  s.insert(Interval::closed(0.0, 1.0));
  s.insert(Interval::closed(2.0, 3.0));
  s.insert(Interval::closed(0.5, 2.5));  // bridges both
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
  s.insert(Interval::closed(10.0, 11.0));
  s.insert(Interval::closed(0.0, 1.0));
  s.insert(Interval::closed(5.0, 6.0));
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.intervals()[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(s.intervals()[1].lo, 5.0);
  EXPECT_DOUBLE_EQ(s.intervals()[2].lo, 10.0);
}

TEST(IntervalSet, ContainsBinarySearchEdges) {
  IntervalSet s;
  s.insert(Interval::half_open(0.0, 0.5));
  s.insert(Interval::half_open(0.75, 1.0));
  EXPECT_TRUE(s.contains(0.0));
  EXPECT_FALSE(s.contains(0.5));
  EXPECT_FALSE(s.contains(0.6));
  EXPECT_TRUE(s.contains(0.75));
  EXPECT_FALSE(s.contains(1.0));
  EXPECT_FALSE(s.contains(-0.1));
}

TEST(IntervalSet, InsertAllUnions) {
  IntervalSet a, b;
  a.insert(Interval::closed(0.0, 1.0));
  b.insert(Interval::closed(0.5, 2.0));
  b.insert(Interval::closed(5.0, 6.0));
  a.insert_all(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.contains(1.7));
  EXPECT_TRUE(a.contains(5.5));
}

TEST(IntervalSet, CoversSet) {
  IntervalSet big;
  big.insert(Interval::closed(0.0, 10.0));
  IntervalSet small;
  small.insert(Interval::closed(1.0, 2.0));
  small.insert(Interval::closed(8.0, 9.0));
  EXPECT_TRUE(big.covers(small));
  EXPECT_FALSE(small.covers(big));
}

TEST(IntervalSet, CoverageAcrossGapIsRejected) {
  IntervalSet gappy;
  gappy.insert(Interval::closed(0.0, 1.0));
  gappy.insert(Interval::closed(2.0, 3.0));
  // [0,3] is not covered: the gap (1,2) leaks.
  EXPECT_FALSE(gappy.covers(Interval::closed(0.0, 3.0)));
  EXPECT_TRUE(gappy.covers(Interval::closed(0.2, 0.8)));
}

TEST(IntervalSet, BoundingHull) {
  IntervalSet s;
  s.insert(Interval::closed(1.0, 2.0));
  s.insert(Interval::half_open(5.0, 7.0));
  const auto b = s.bounding();
  EXPECT_DOUBLE_EQ(b.lo, 1.0);
  EXPECT_DOUBLE_EQ(b.hi, 7.0);
  EXPECT_TRUE(b.hi_open);
}

TEST(IntervalSet, IsAll) {
  IntervalSet s;
  EXPECT_FALSE(s.is_all());
  s.insert(Interval::all());
  EXPECT_TRUE(s.is_all());
}

TEST(IntervalSet, EqualityIsCanonical) {
  IntervalSet a, b;
  a.insert(Interval::closed(0.0, 1.0));
  a.insert(Interval::closed(1.0, 2.0));
  b.insert(Interval::closed(0.0, 2.0));
  EXPECT_EQ(a, b);  // both canonicalize to [0,2]
}

}  // namespace
}  // namespace pmc
