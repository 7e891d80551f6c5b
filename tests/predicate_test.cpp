#include "filter/predicate.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

namespace pmc {
namespace {

Event make_event() {
  Event e;
  e.with("b", 2).with("c", 41.5).with("e", "Bob").with("z", 20000);
  return e;
}

TEST(Predicate, WildcardMatchesEverything) {
  EXPECT_TRUE(Predicate::wildcard()->match(make_event()));
  EXPECT_TRUE(Predicate::wildcard()->match(Event{}));
}

TEST(Predicate, NeverMatchesNothing) {
  EXPECT_FALSE(Predicate::never()->match(make_event()));
}

TEST(Predicate, NumericComparisons) {
  const auto e = make_event();
  EXPECT_TRUE(Predicate::compare("b", CmpOp::Eq, Value(2))->match(e));
  EXPECT_TRUE(Predicate::compare("b", CmpOp::Eq, Value(2.0))->match(e));
  EXPECT_FALSE(Predicate::compare("b", CmpOp::Eq, Value(3))->match(e));
  EXPECT_TRUE(Predicate::compare("c", CmpOp::Gt, Value(40.0))->match(e));
  EXPECT_FALSE(Predicate::compare("c", CmpOp::Gt, Value(41.5))->match(e));
  EXPECT_TRUE(Predicate::compare("c", CmpOp::Ge, Value(41.5))->match(e));
  EXPECT_TRUE(Predicate::compare("z", CmpOp::Le, Value(50000))->match(e));
  EXPECT_TRUE(Predicate::compare("z", CmpOp::Ne, Value(1))->match(e));
}

TEST(Predicate, StringComparisons) {
  const auto e = make_event();
  EXPECT_TRUE(Predicate::compare("e", CmpOp::Eq, Value("Bob"))->match(e));
  EXPECT_FALSE(Predicate::compare("e", CmpOp::Eq, Value("Tom"))->match(e));
  EXPECT_TRUE(Predicate::compare("e", CmpOp::Ne, Value("Tom"))->match(e));
  EXPECT_TRUE(Predicate::compare("e", CmpOp::Lt, Value("Zed"))->match(e));
}

TEST(Predicate, CrossKindComparison) {
  const auto e = make_event();
  // b is numeric; comparing against a string matches only Ne.
  EXPECT_FALSE(Predicate::compare("b", CmpOp::Eq, Value("2"))->match(e));
  EXPECT_TRUE(Predicate::compare("b", CmpOp::Ne, Value("2"))->match(e));
}

TEST(Predicate, MissingAttributeIsFalse) {
  const auto e = make_event();
  EXPECT_FALSE(Predicate::compare("nope", CmpOp::Eq, Value(1))->match(e));
  EXPECT_FALSE(Predicate::compare("nope", CmpOp::Ne, Value(1))->match(e));
}

TEST(Predicate, ConjunctionSemantics) {
  const auto e = make_event();
  const auto both = Predicate::conj(
      {Predicate::compare("b", CmpOp::Eq, Value(2)),
       Predicate::compare("c", CmpOp::Gt, Value(40.0))});
  EXPECT_TRUE(both->match(e));
  const auto one_false = Predicate::conj(
      {Predicate::compare("b", CmpOp::Eq, Value(2)),
       Predicate::compare("c", CmpOp::Gt, Value(100.0))});
  EXPECT_FALSE(one_false->match(e));
}

TEST(Predicate, DisjunctionSemantics) {
  const auto e = make_event();
  const auto either = Predicate::disj(
      {Predicate::compare("e", CmpOp::Eq, Value("Bob")),
       Predicate::compare("e", CmpOp::Eq, Value("Tom"))});
  EXPECT_TRUE(either->match(e));
  const auto neither = Predicate::disj(
      {Predicate::compare("e", CmpOp::Eq, Value("Ann")),
       Predicate::compare("e", CmpOp::Eq, Value("Tom"))});
  EXPECT_FALSE(neither->match(e));
}

TEST(Predicate, ConjFoldsConstants) {
  EXPECT_EQ(Predicate::conj({})->kind(), Predicate::Kind::True);
  EXPECT_EQ(Predicate::conj({Predicate::wildcard(), Predicate::wildcard()})
                ->kind(),
            Predicate::Kind::True);
  EXPECT_EQ(
      Predicate::conj({Predicate::never(),
                       Predicate::compare("b", CmpOp::Eq, Value(1))})
          ->kind(),
      Predicate::Kind::False);
}

TEST(Predicate, DisjFoldsConstants) {
  EXPECT_EQ(Predicate::disj({})->kind(), Predicate::Kind::False);
  EXPECT_EQ(
      Predicate::disj({Predicate::wildcard(), Predicate::never()})->kind(),
      Predicate::Kind::True);
  EXPECT_EQ(Predicate::disj({Predicate::never(), Predicate::never()})->kind(),
            Predicate::Kind::False);
}

TEST(Predicate, NestedFlattening) {
  const auto nested = Predicate::conj(
      {Predicate::conj({Predicate::compare("b", CmpOp::Gt, Value(0)),
                        Predicate::compare("b", CmpOp::Lt, Value(10))}),
       Predicate::compare("c", CmpOp::Gt, Value(0.0))});
  EXPECT_EQ(nested->kind(), Predicate::Kind::And);
  EXPECT_EQ(nested->children().size(), 3u);
}

TEST(Predicate, SingleChildCollapses) {
  const auto p = Predicate::compare("b", CmpOp::Eq, Value(1));
  EXPECT_EQ(Predicate::conj({p}).get(), p.get());
  EXPECT_EQ(Predicate::disj({p}).get(), p.get());
}

TEST(Predicate, NegationOfComparisonStaysANotNode) {
  // negation() must NOT fold !(b < 5) into b >= 5: the two differ on events
  // with no `b` attribute (see the absent-attribute lock below).
  const auto p = Predicate::negation(
      Predicate::compare("b", CmpOp::Lt, Value(5)));
  ASSERT_EQ(p->kind(), Predicate::Kind::Not);
  EXPECT_EQ(p->child()->kind(), Predicate::Kind::Compare);
  EXPECT_EQ(p->child()->op(), CmpOp::Lt);
}

// Absent-attribute semantics lock: a comparison on an attribute the event
// does not carry is false, and Not flips it. Therefore Not(Eq(a, v)) matches
// an event lacking `a` while the op-negated Ne(a, v) does not — any
// normalization (negation(), regrouping, ...) that collapses the
// two is wrong.
TEST(Predicate, NotOfCompareDiffersFromOpNegationOnAbsentAttribute) {
  const auto absent = Event{}.with("other", Value(1));
  const auto not_of_eq = Predicate::negation(
      Predicate::compare("a", CmpOp::Eq, Value(7)));
  const auto ne = Predicate::compare("a", CmpOp::Ne, Value(7));
  EXPECT_TRUE(not_of_eq->match(absent));
  EXPECT_FALSE(ne->match(absent));

  // On events that DO carry the attribute the two agree.
  EXPECT_FALSE(not_of_eq->match(Event{}.with("a", Value(7))));
  EXPECT_FALSE(ne->match(Event{}.with("a", Value(7))));
  EXPECT_TRUE(not_of_eq->match(Event{}.with("a", Value(8))));
  EXPECT_TRUE(ne->match(Event{}.with("a", Value(8))));
}

TEST(Predicate, NotOfOrderedCompareMatchesAbsentAttribute) {
  const auto absent = Event{}.with("other", Value("x"));
  for (const CmpOp op :
       {CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge}) {
    const auto cmp = Predicate::compare("a", op, Value(3.5));
    EXPECT_FALSE(cmp->match(absent)) << to_string(op);
    EXPECT_TRUE(Predicate::negation(cmp)->match(absent)) << to_string(op);
  }
}

TEST(Predicate, DoubleNegationCancels) {
  const auto base = Predicate::conj(
      {Predicate::compare("b", CmpOp::Eq, Value(1)),
       Predicate::compare("c", CmpOp::Eq, Value(2.0))});
  const auto once = Predicate::negation(base);
  EXPECT_EQ(once->kind(), Predicate::Kind::Not);
  const auto twice = Predicate::negation(once);
  EXPECT_EQ(twice.get(), base.get());
}

TEST(Predicate, NegationOfConstants) {
  EXPECT_EQ(Predicate::negation(Predicate::wildcard())->kind(),
            Predicate::Kind::False);
  EXPECT_EQ(Predicate::negation(Predicate::never())->kind(),
            Predicate::Kind::True);
}

TEST(Predicate, NotMatchSemantics) {
  const auto e = make_event();
  const auto p = Predicate::negation(Predicate::conj(
      {Predicate::compare("b", CmpOp::Eq, Value(2)),
       Predicate::compare("e", CmpOp::Eq, Value("Tom"))}));
  EXPECT_TRUE(p->match(e));  // inner And is false (e != Tom)
}

TEST(Predicate, NanAndInfinityFollowIeeeComparisons) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto matches = [](double u, CmpOp op, double target) {
    return Predicate::compare("u", op, Value(target))
        ->match(Event{}.with("u", Value(u)));
  };

  // NaN on either side: every ordered comparison and Eq is false, Ne true.
  for (const double x : {0.5, kInf, -kInf, kNaN}) {
    for (const auto& [u, target] : {std::pair{kNaN, x}, std::pair{x, kNaN}}) {
      EXPECT_FALSE(matches(u, CmpOp::Eq, target)) << u << " == " << target;
      EXPECT_TRUE(matches(u, CmpOp::Ne, target)) << u << " != " << target;
      EXPECT_FALSE(matches(u, CmpOp::Lt, target)) << u << " < " << target;
      EXPECT_FALSE(matches(u, CmpOp::Le, target)) << u << " <= " << target;
      EXPECT_FALSE(matches(u, CmpOp::Gt, target)) << u << " > " << target;
      EXPECT_FALSE(matches(u, CmpOp::Ge, target)) << u << " >= " << target;
    }
  }

  // u > +inf never matches, u >= +inf matches +inf alone, and u >= -inf
  // matches every non-NaN u.
  for (const double u : {-kInf, -1e300, -1.0, -0.0, 0.0, 0.5, 1e300, kInf}) {
    EXPECT_FALSE(matches(u, CmpOp::Gt, kInf)) << u;
    EXPECT_EQ(matches(u, CmpOp::Ge, kInf), u == kInf) << u;
    EXPECT_TRUE(matches(u, CmpOp::Ge, -kInf)) << u;
  }

  // Not flips a comparison that NaN made false.
  const auto not_lt = Predicate::negation(
      Predicate::compare("u", CmpOp::Lt, Value(0.5)));
  EXPECT_TRUE(not_lt->match(Event{}.with("u", Value(kNaN))));
  const auto not_eq_nan = Predicate::negation(
      Predicate::compare("u", CmpOp::Eq, Value(kNaN)));
  EXPECT_TRUE(not_eq_nan->match(Event{}.with("u", Value(kNaN))));
}

TEST(Predicate, AccessorContracts) {
  const auto cmp = Predicate::compare("b", CmpOp::Le, Value(3));
  EXPECT_EQ(cmp->attr(), "b");
  EXPECT_EQ(cmp->op(), CmpOp::Le);
  EXPECT_EQ(cmp->value(), Value(3));
  EXPECT_THROW(cmp->children(), std::logic_error);
  EXPECT_THROW(Predicate::wildcard()->attr(), std::logic_error);
}

TEST(Predicate, ToStringRoundTripish) {
  const auto p = Predicate::conj(
      {Predicate::compare("b", CmpOp::Gt, Value(3)),
       Predicate::compare("c", CmpOp::Lt, Value(220.0))});
  EXPECT_EQ(p->to_string(), "(b > 3 && c < 220)");
}

}  // namespace
}  // namespace pmc
