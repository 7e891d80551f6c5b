#include "harness/workload.hpp"

#include <gtest/gtest.h>

namespace pmc {
namespace {

TEST(IntervalSubscription, PlainInterval) {
  const auto sub = interval_subscription(0.2, 0.3);  // [0.2, 0.5)
  EXPECT_TRUE(sub.match(make_event_at(0, 0, 0.2)));
  EXPECT_TRUE(sub.match(make_event_at(0, 0, 0.49)));
  EXPECT_FALSE(sub.match(make_event_at(0, 0, 0.5)));
  EXPECT_FALSE(sub.match(make_event_at(0, 0, 0.1)));
}

TEST(IntervalSubscription, WrapAround) {
  const auto sub = interval_subscription(0.9, 0.3);  // [0.9,1) ∪ [0,0.2)
  EXPECT_TRUE(sub.match(make_event_at(0, 0, 0.95)));
  EXPECT_TRUE(sub.match(make_event_at(0, 0, 0.1)));
  EXPECT_FALSE(sub.match(make_event_at(0, 0, 0.2)));
  EXPECT_FALSE(sub.match(make_event_at(0, 0, 0.5)));
}

TEST(IntervalSubscription, FullWidthIsWildcard) {
  const auto sub = interval_subscription(0.4, 1.0);
  EXPECT_TRUE(sub.is_wildcard());
  EXPECT_TRUE(sub.match(make_event_at(0, 0, 0.0)));
}

TEST(IntervalSubscription, ZeroWidthMatchesNothing) {
  const auto sub = interval_subscription(0.4, 0.0);
  for (double u : {0.0, 0.4, 0.9})
    EXPECT_FALSE(sub.match(make_event_at(0, 0, u)));
}

TEST(IntervalSubscription, InvalidArgsRejected) {
  EXPECT_THROW(interval_subscription(1.0, 0.5), std::logic_error);
  EXPECT_THROW(interval_subscription(-0.1, 0.5), std::logic_error);
  EXPECT_THROW(interval_subscription(0.5, 1.5), std::logic_error);
}

TEST(UniformInterestMembers, OnePerAddress) {
  Rng rng(1);
  const auto space = AddressSpace::regular(4, 2);
  const auto members = uniform_interest_members(space, 0.5, rng);
  EXPECT_EQ(members.size(), 16u);
  for (std::size_t i = 1; i < members.size(); ++i)
    EXPECT_LT(members[i - 1].address, members[i].address);
}

TEST(UniformInterestMembers, MatchProbabilityApproximatesPd) {
  // The load-bearing property of the workload: every event matches each
  // process independently with probability pd (Sec. 4.1's model).
  Rng rng(2);
  const auto space = AddressSpace::regular(10, 2);  // 100 processes
  const double pd = 0.35;
  const auto members = uniform_interest_members(space, pd, rng);
  std::size_t hits = 0, trials = 0;
  Rng ev_rng(3);
  for (int t = 0; t < 300; ++t) {
    const Event e = make_uniform_event(0, static_cast<std::uint64_t>(t),
                                       ev_rng);
    for (const auto& m : members) {
      ++trials;
      if (m.subscription.match(e)) ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / static_cast<double>(trials), pd,
              0.02);
}

TEST(UniformInterestMembers, IndependenceAcrossProcesses) {
  // Offsets are iid uniform, so the correlation between two processes'
  // match indicators should be near zero.
  Rng rng(4);
  const auto space = AddressSpace::regular(2, 1);
  const double pd = 0.4;
  const auto members = uniform_interest_members(space, pd, rng);
  Rng ev_rng(5);
  int both = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const Event e = make_uniform_event(0, static_cast<std::uint64_t>(t),
                                       ev_rng);
    if (members[0].subscription.match(e) &&
        members[1].subscription.match(e))
      ++both;
  }
  // Independent: P[both] = pd^2 = 0.16 (joint overlap varies per draw; with
  // one fixed pair the joint probability equals the overlap width, which is
  // itself random — accept a generous band).
  EXPECT_LT(both / static_cast<double>(trials), pd);
}

TEST(ClusteredInterestMembers, SameLeafSharesRegion) {
  Rng rng(6);
  const auto space = AddressSpace::regular(4, 2);
  const auto members = clustered_interest_members(space, 0.2, 0.0, rng);
  // With zero jitter, all members of leaf k have identical subscriptions.
  for (std::size_t i = 0; i < members.size(); i += 4) {
    Rng ev_rng(7);
    for (int t = 0; t < 50; ++t) {
      const Event e = make_uniform_event(0, static_cast<std::uint64_t>(t),
                                         ev_rng);
      const bool first = members[i].subscription.match(e);
      for (std::size_t j = 1; j < 4; ++j)
        EXPECT_EQ(members[i + j].subscription.match(e), first);
    }
  }
}

TEST(ClusteredInterestMembers, DifferentLeavesDifferentRegions) {
  Rng rng(8);
  const auto space = AddressSpace::regular(4, 2);
  const auto members = clustered_interest_members(space, 0.2, 0.0, rng);
  // Leaf 0 covers [0, 0.2); leaf 2 covers [0.5, 0.7).
  EXPECT_TRUE(members[0].subscription.match(make_event_at(0, 0, 0.1)));
  EXPECT_FALSE(members[8].subscription.match(make_event_at(0, 0, 0.1)));
  EXPECT_TRUE(members[8].subscription.match(make_event_at(0, 0, 0.6)));
}

TEST(MakeEvent, CarriesUniformAttribute) {
  Rng rng(9);
  const Event e = make_uniform_event(3, 14, rng);
  EXPECT_EQ(e.id().publisher, 3u);
  EXPECT_EQ(e.id().sequence, 14u);
  const auto u = e.get(kUniformAttr);
  ASSERT_TRUE(u.has_value());
  EXPECT_GE(u->as_double(), 0.0);
  EXPECT_LT(u->as_double(), 1.0);
}

TEST(MakeEventAt, Deterministic) {
  const Event e = make_event_at(1, 2, 0.75);
  EXPECT_DOUBLE_EQ(e.get(kUniformAttr)->as_double(), 0.75);
}

}  // namespace
}  // namespace pmc
