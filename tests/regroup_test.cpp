#include "filter/regroup.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/rng.hpp"
#include "filter/subscription.hpp"
#include "harness/workload.hpp"
#include "wire/messages.hpp"

namespace pmc {
namespace {

Event ev(double c) {
  Event e;
  e.with("c", c);
  return e;
}

/// to_dnf of `text` into a fresh vector; nullopt when it gives up.
std::optional<std::vector<Clause>> dnf_of(const std::string& text) {
  std::vector<Clause> out;
  if (!to_dnf(*Subscription::parse(text).predicate(), 64, out))
    return std::nullopt;
  return out;
}

/// A summary's wire bytes.
std::vector<std::uint8_t> bytes_of(const InterestSummary& s) {
  Writer w;
  wire::encode(w, s);
  return std::move(w).take();
}

/// `built` is `expected` by ==, by hash() and by its wire bytes.
void expect_same_summary(const InterestSummary& built,
                         const InterestSummary& expected) {
  EXPECT_EQ(built, expected) << built.to_string() << " vs "
                             << expected.to_string();
  EXPECT_EQ(built.hash(), expected.hash());
  EXPECT_EQ(bytes_of(built), bytes_of(expected));
}

/// One attribute's interval union, inserted in the order given.
FlatMap<std::string, IntervalSet> union_of(
    const std::string& attr, std::initializer_list<Interval> ivs) {
  FlatMap<std::string, IntervalSet> unions;
  for (const auto& iv : ivs) unions[attr].insert(iv);
  return unions;
}

Clause clause(std::initializer_list<std::pair<std::string, Interval>> numeric,
              std::initializer_list<std::pair<std::string, std::string>>
                  strings = {}) {
  Clause c;
  for (const auto& [attr, iv] : numeric) c.constrain_numeric(attr, iv);
  for (const auto& [attr, v] : strings) c.constrain_string(attr, {v});
  return c;
}

TEST(FlatMap, TryEmplaceKeepsTheFirstValue) {
  // As std::map's emplace does, which the summary decoder relied on.
  FlatMap<std::string, int> flat;
  std::map<std::string, int> tree;
  const std::pair<std::string, int> inserts[] = {
      {"u", 1}, {"b", 2}, {"u", 3}, {"a", 4}, {"b", 5}};
  for (const auto& [key, value] : inserts) {
    const bool fresh = flat.try_emplace(key, value).second;
    EXPECT_EQ(fresh, tree.emplace(key, value).second) << key;
  }
  EXPECT_TRUE(std::equal(flat.begin(), flat.end(), tree.begin(), tree.end(),
                         [](const auto& x, const auto& y) {
                           return x.first == y.first && x.second == y.second;
                         }));
  EXPECT_EQ(flat.find("u")->second, 1);
}

TEST(Clause, UnconstrainedMatchesEverything) {
  Clause c;
  EXPECT_TRUE(c.unconstrained());
  EXPECT_TRUE(c.match(Event{}));
}

TEST(Clause, NumericConstraint) {
  Clause c;
  c.constrain_numeric("b", Interval{1.0, 5.0, false, false});
  Event in;
  in.with("b", 3);
  Event out;
  out.with("b", 6);
  EXPECT_TRUE(c.match(in));
  EXPECT_FALSE(c.match(out));
  EXPECT_FALSE(c.match(Event{}));  // missing attribute
}

TEST(Clause, IntersectingConstraintsNarrow) {
  Clause c;
  c.constrain_numeric("b", Interval::at_least(1.0));
  c.constrain_numeric("b", Interval::at_most(5.0));
  Event in;
  in.with("b", 3);
  EXPECT_TRUE(c.match(in));
  Event out;
  out.with("b", 0);
  EXPECT_FALSE(c.match(out));
}

TEST(Clause, ContradictionDetected) {
  Clause c;
  c.constrain_numeric("b", Interval::at_most(1.0, true));
  c.constrain_numeric("b", Interval::at_least(2.0));
  EXPECT_TRUE(c.contradictory());
  Event e;
  e.with("b", 1.5);
  EXPECT_FALSE(c.match(e));
}

TEST(Clause, StringWhitelist) {
  Clause c;
  c.constrain_string("e", {"Bob", "Tom"});
  Event bob;
  bob.with("e", "Bob");
  Event ann;
  ann.with("e", "Ann");
  EXPECT_TRUE(c.match(bob));
  EXPECT_FALSE(c.match(ann));
}

TEST(Clause, StringIntersection) {
  Clause c;
  c.constrain_string("e", {"Bob", "Tom"});
  c.constrain_string("e", {"Tom", "Ann"});
  Event tom;
  tom.with("e", "Tom");
  Event bob;
  bob.with("e", "Bob");
  EXPECT_TRUE(c.match(tom));
  EXPECT_FALSE(c.match(bob));
}

TEST(Clause, MixedKindSameAttrContradicts) {
  Clause c;
  c.constrain_numeric("x", Interval::point(1.0));
  c.constrain_string("x", {"one"});
  EXPECT_TRUE(c.contradictory());
}

TEST(Clause, Subsumption) {
  Clause weak;
  weak.constrain_numeric("b", Interval{0.0, 10.0, false, false});
  Clause strong;
  strong.constrain_numeric("b", Interval{2.0, 3.0, false, false});
  strong.constrain_numeric("c", Interval::at_least(1.0));
  EXPECT_TRUE(weak.subsumes(strong));
  EXPECT_FALSE(strong.subsumes(weak));
  EXPECT_TRUE(weak.subsumes(weak));
}

TEST(ToDnf, SimpleComparison) {
  const auto clauses = dnf_of("b > 3");
  ASSERT_TRUE(clauses.has_value());
  ASSERT_EQ(clauses->size(), 1u);
}

TEST(ToDnf, NumericNeSplitsIntoTwoClauses) {
  const auto clauses = dnf_of("b != 3");
  ASSERT_TRUE(clauses.has_value());
  EXPECT_EQ(clauses->size(), 2u);
}

TEST(ToDnf, AndDistributesOverOr) {
  const auto clauses = dnf_of("(a == 1 || a == 2) && (b == 3 || b == 4)");
  ASSERT_TRUE(clauses.has_value());
  EXPECT_EQ(clauses->size(), 4u);
}

TEST(ToDnf, ContradictionsDropped) {
  const auto clauses = dnf_of("b > 5 && b < 3");
  ASSERT_TRUE(clauses.has_value());
  EXPECT_TRUE(clauses->empty());
}

TEST(ToDnf, BudgetExhaustionReturnsNullopt) {
  // 2^7 = 128 clauses > 64 budget.
  std::string text = "(a0 == 0 || a0 == 1)";
  for (int i = 1; i < 7; ++i) {
    text += " && (a" + std::to_string(i) + " == 0 || a" + std::to_string(i) +
            " == 1)";
  }
  EXPECT_FALSE(dnf_of(text).has_value());
}

TEST(ToDnf, StringInequalityNotRepresentable) {
  EXPECT_FALSE(dnf_of("e != \"Bob\"").has_value());
}

TEST(ToDnf, NestedAndOrGivesTheHandBuiltSummary) {
  // A disjunction inside a conjunction (a product), comparisons narrowing
  // the product in place, and a numeric != (a product of two rays).
  const std::string text =
      "((a < 1 || a > 5) && b >= 2 && b < 4) || (e == \"Bob\" && a != 3)";
  const Interval b_range{2.0, 4.0, false, true};
  const std::vector<Clause> expected{
      clause({{"a", Interval::at_most(1.0, true)}, {"b", b_range}}),
      clause({{"a", Interval::at_least(5.0, true)}, {"b", b_range}}),
      clause({{"a", Interval::at_most(3.0, true)}}, {{"e", "Bob"}}),
      clause({{"a", Interval::at_least(3.0, true)}}, {{"e", "Bob"}})};
  const auto clauses = dnf_of(text);
  ASSERT_TRUE(clauses.has_value());
  EXPECT_EQ(*clauses, expected);
  expect_same_summary(InterestSummary::from(Subscription::parse(text)),
                      InterestSummary::reassemble(false, {}, {}, expected, {}));

  // Single-attribute clauses fold into the tier-1 and tier-2 unions.
  const auto mixed = Subscription::parse(
      "(u >= 0.5 && u < 0.75) || e == \"x\" || (a > 0 && b > 0) || u < 0.25");
  FlatMap<std::string, std::vector<std::string>> strings;
  strings["e"] = {"x"};
  expect_same_summary(
      InterestSummary::from(mixed),
      InterestSummary::reassemble(
          false,
          union_of("u", {Interval{0.5, 0.75, false, true},
                         Interval::at_most(0.25, true)}),
          strings,
          {clause({{"a", Interval::at_least(0.0, true)},
                   {"b", Interval::at_least(0.0, true)}})},
          {}));
}

TEST(InterestSummary, IntervalSubscriptionsGiveTheHandBuiltSummary) {
  // interval_subscription's two shapes: a range, and a range that wraps
  // around 1.0, a disjunction of two rays.
  const auto plain = InterestSummary::from(interval_subscription(0.25, 0.5));
  expect_same_summary(
      plain, InterestSummary::reassemble(
                 false, union_of("u", {Interval{0.25, 0.75, false, true}}),
                 {}, {}, {}));
  const auto wrapped = InterestSummary::from(interval_subscription(0.75, 0.5));
  expect_same_summary(
      wrapped, InterestSummary::reassemble(
                   false,
                   union_of("u", {Interval::at_most(0.25, true),
                                  Interval::at_least(0.75)}),
                   {}, {}, {}));
  // Together they cover the whole line.
  auto both = plain;
  both.merge(wrapped);
  expect_same_summary(both, InterestSummary::reassemble(
                                false, union_of("u", {Interval{}}), {}, {},
                                {}));
}

TEST(InterestSummary, TurningWildcardKeepsTheTiersItHeld) {
  auto s = InterestSummary::from(Subscription::parse("b > 3"));
  s.merge(InterestSummary::from(Subscription()));
  expect_same_summary(
      s, InterestSummary::reassemble(
             true, union_of("b", {Interval::at_least(3.0, true)}), {}, {},
             {}));
}

TEST(InterestSummary, WildcardSubscription) {
  const auto s = InterestSummary::from(Subscription());
  EXPECT_TRUE(s.is_wildcard());
  EXPECT_TRUE(s.match(Event{}));
  EXPECT_EQ(s.complexity(), 0u);
}

TEST(InterestSummary, SingleRangeMatches) {
  const auto s =
      InterestSummary::from(Subscription::parse("c > 155.6"));
  EXPECT_TRUE(s.match(ev(156.0)));
  EXPECT_FALSE(s.match(ev(155.6)));
}

TEST(InterestSummary, UnionOfRangesMergesIntervals) {
  auto s = InterestSummary::from(Subscription::parse("c > 10.0 && c < 20.0"));
  s.merge(InterestSummary::from(Subscription::parse("c >= 15.0 && c < 30.0")));
  // One attribute, intervals merged into a single (10, 30).
  ASSERT_EQ(s.numeric_unions().size(), 1u);
  EXPECT_EQ(s.numeric_unions().begin()->first, "c");
  EXPECT_EQ(s.numeric_unions().begin()->second.size(), 1u);
  EXPECT_TRUE(s.match(ev(25.0)));
  EXPECT_TRUE(s.match(ev(12.0)));
  EXPECT_FALSE(s.match(ev(30.0)));
}

TEST(InterestSummary, NoFalseNegativesOverMergedSubscriptions) {
  // Core soundness property (paper Sec. 2.3): the regrouped interest of a
  // subgroup must match every event any member's subscription matches.
  Rng rng(7);
  std::vector<Subscription> subs;
  for (int i = 0; i < 40; ++i) {
    const double lo = rng.next_double();
    const double w = rng.next_double() * 0.3;
    subs.push_back(Subscription::parse(
        "c >= " + std::to_string(lo) + " && c < " + std::to_string(lo + w)));
  }
  InterestSummary summary;
  for (const auto& s : subs) summary.merge(InterestSummary::from(s));
  for (int i = 0; i < 2000; ++i) {
    const Event e = ev(rng.next_double() * 1.4);
    bool any = false;
    for (const auto& s : subs) any = any || s.match(e);
    if (any) {
      EXPECT_TRUE(summary.match(e)) << "false negative at " << i;
    }
  }
}

TEST(InterestSummary, ExactForIntervalUnions) {
  // For pure single-attribute range subscriptions the summary is *exact*:
  // no false positives either.
  Rng rng(11);
  std::vector<Subscription> subs;
  for (int i = 0; i < 25; ++i) {
    const double lo = rng.next_double() * 0.8;
    subs.push_back(Subscription::parse(
        "c >= " + std::to_string(lo) + " && c < " + std::to_string(lo + 0.1)));
  }
  InterestSummary summary;
  for (const auto& s : subs) summary.merge(InterestSummary::from(s));
  for (int i = 0; i < 2000; ++i) {
    const Event e = ev(rng.next_double());
    bool any = false;
    for (const auto& s : subs) any = any || s.match(e);
    EXPECT_EQ(summary.match(e), any);
  }
}

TEST(InterestSummary, MultiAttributeClausesKept) {
  const auto s = InterestSummary::from(
      Subscription::parse("b > 3 && 10.0 < c && c < 220.0"));
  Event in;
  in.with("b", 4).with("c", 100.0);
  Event wrong_b;
  wrong_b.with("b", 2).with("c", 100.0);
  EXPECT_TRUE(s.match(in));
  EXPECT_FALSE(s.match(wrong_b));
  EXPECT_EQ(s.clauses().size(), 1u);
}

TEST(InterestSummary, MergeWithWildcardBecomesWildcard) {
  auto s = InterestSummary::from(Subscription::parse("b > 3"));
  s.merge(InterestSummary::from(Subscription()));
  EXPECT_TRUE(s.is_wildcard());
  EXPECT_TRUE(s.match(Event{}));
}

TEST(InterestSummary, SubsumedClauseDropped) {
  auto s = InterestSummary::from(
      Subscription::parse("b > 3 && c > 10.0"));
  // (b > 3 && c > 5) is weaker; merging it should leave a single clause.
  s.merge(InterestSummary::from(Subscription::parse("b > 3 && c > 5.0")));
  EXPECT_EQ(s.clauses().size(), 1u);
  Event e;
  e.with("b", 4).with("c", 7.0);
  EXPECT_TRUE(s.match(e));
}

TEST(InterestSummary, ClauseCoveredBySingleAttrUnionDropped) {
  auto s = InterestSummary::from(Subscription::parse("b > 0"));
  s.merge(InterestSummary::from(Subscription::parse("b > 3 && c > 10.0")));
  // b > 0 already covers every event the two-attribute clause matches.
  EXPECT_TRUE(s.clauses().empty());
  Event e;
  e.with("b", 4).with("c", 20.0);
  EXPECT_TRUE(s.match(e));
}

TEST(InterestSummary, OpaquePredicatesStillMatch) {
  const auto s = InterestSummary::from(
      Subscription::parse("e != \"Bob\""));  // not DNF-representable
  Event tom;
  tom.with("e", "Tom");
  Event bob;
  bob.with("e", "Bob");
  EXPECT_TRUE(s.match(tom));
  EXPECT_FALSE(s.match(bob));
}

TEST(InterestSummary, CoarsenIsMonotone) {
  // Coarsening may only add matches, never lose them.
  Rng rng(13);
  auto s = InterestSummary::from(
      Subscription::parse("b > 3 && c > 10.0 && c < 20.0"));
  s.merge(InterestSummary::from(Subscription::parse("c >= 100.0 && c < 101.0")));
  s.merge(InterestSummary::from(Subscription::parse("c >= 0.0 && c < 0.5")));
  auto coarse = s;
  coarse.coarsen();
  for (int i = 0; i < 1000; ++i) {
    Event e;
    e.with("b", static_cast<std::int64_t>(rng.next_below(10)))
        .with("c", rng.next_double() * 120.0);
    if (s.match(e)) {
      EXPECT_TRUE(coarse.match(e));
    }
  }
  EXPECT_LE(coarse.complexity(), s.complexity());
}

TEST(InterestSummary, StringUnions) {
  auto s = InterestSummary::from(Subscription::parse("e == \"Bob\""));
  s.merge(InterestSummary::from(Subscription::parse("e == \"Tom\"")));
  Event bob;
  bob.with("e", "Bob");
  Event tom;
  tom.with("e", "Tom");
  Event ann;
  ann.with("e", "Ann");
  EXPECT_TRUE(s.match(bob));
  EXPECT_TRUE(s.match(tom));
  EXPECT_FALSE(s.match(ann));
}

TEST(InterestSummary, ComplexityReflectsCompaction) {
  // 20 overlapping ranges collapse into one interval: complexity 1, far
  // below the naive disjunction of 20 subscriptions.
  InterestSummary s;
  for (int i = 0; i < 20; ++i) {
    const double lo = 0.1 * i;
    s.merge(InterestSummary::from(Subscription::parse(
        "c >= " + std::to_string(lo) + " && c <= " + std::to_string(lo + 0.2))));
  }
  EXPECT_EQ(s.complexity(), 1u);
}

}  // namespace
}  // namespace pmc
