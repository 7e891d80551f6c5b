#include "membership/view.hpp"

#include <gtest/gtest.h>

#include "filter/subscription.hpp"

namespace pmc {
namespace {

ViewRow row(AddrComponent infix, std::uint64_t version,
            std::uint64_t count = 1, bool alive = true) {
  ViewRow r;
  r.infix = infix;
  r.version = version;
  r.process_count = count;
  r.alive = alive;
  r.delegates = {Address::parse(std::to_string(infix) + ".0.0")};
  r.interests = std::make_shared<const InterestSummary>(
      InterestSummary::from(Subscription()));
  return r;
}

/// A DepthView needs intern state to store rows; the fixture owns one.
struct BoundView {
  Interns interns;
  DepthView v;
  BoundView() { v.bind(interns); }
};

TEST(DepthView, UpsertInsertsSorted) {
  BoundView b;
  EXPECT_TRUE(b.v.upsert(row(5, 1)));
  EXPECT_TRUE(b.v.upsert(row(1, 1)));
  EXPECT_TRUE(b.v.upsert(row(3, 1)));
  ASSERT_EQ(b.v.size(), 3u);
  EXPECT_EQ(b.v.infix(0), 1);
  EXPECT_EQ(b.v.infix(1), 3);
  EXPECT_EQ(b.v.infix(2), 5);
}

TEST(DepthView, NewerVersionWins) {
  BoundView b;
  b.v.upsert(row(1, 1, 10));
  EXPECT_TRUE(b.v.upsert(row(1, 2, 20)));
  EXPECT_EQ(b.v.process_count(b.v.find_index(1)), 20u);
  EXPECT_EQ(b.v.size(), 1u);
}

TEST(DepthView, OlderOrEqualVersionIgnored) {
  // The version decides before any interning: a stale or equal-version row
  // with never-seen delegates and a never-seen summary leaves the row, the
  // intern state and the mutation counter exactly as they were.
  BoundView b;
  b.v.upsert(row(1, 5, 10));
  const auto addrs = b.interns.addrs.size();
  const auto summaries = b.interns.summaries.size();
  const auto mutations = b.v.mutations();
  for (const std::uint64_t version : {std::uint64_t{3}, std::uint64_t{5}}) {
    ViewRow fresh = row(1, version, 99);
    fresh.delegates = {Address::parse("1.7.7"), Address::parse("1.8.8")};
    fresh.interests = std::make_shared<const InterestSummary>(
        InterestSummary::from(Subscription::parse("b > 4")));
    EXPECT_FALSE(b.v.upsert(fresh)) << version;
    EXPECT_EQ(b.interns.addrs.size(), addrs) << version;
    EXPECT_EQ(b.interns.summaries.size(), summaries) << version;
    EXPECT_EQ(b.v.mutations(), mutations) << version;
  }
  EXPECT_EQ(b.v.process_count(b.v.find_index(1)), 10u);
}

TEST(DepthView, FirstSightAdoptsTheRowHandle) {
  // A summary the pool has not seen is stored without a copy: the row's
  // own allocation becomes the pooled instance.
  BoundView b;
  ViewRow r = row(1, 1);
  r.interests = std::make_shared<const InterestSummary>(
      InterestSummary::from(Subscription::parse("b > 4")));
  ASSERT_TRUE(b.v.upsert(r));
  EXPECT_EQ(b.v.interests_ptr(0).get(), r.interests.get());
  EXPECT_EQ(b.interns.summaries.size(), 1u);
}

TEST(DepthView, MaterializeSharesThePooledHandle) {
  BoundView b;
  b.v.upsert(row(3, 1));
  const ViewRow back = b.v.materialize(0);
  EXPECT_EQ(back.interests.get(), &b.v.interests(0));
  // Re-ingesting the handle (another view of the same runtime) finds the
  // pooled entry by identity and adds nothing to the pool.
  DepthView other;
  other.bind(b.interns);
  ASSERT_TRUE(other.upsert(back));
  EXPECT_EQ(other.interests_ptr(0).get(), back.interests.get());
  EXPECT_EQ(b.interns.summaries.size(), 1u);
}

TEST(DepthView, NullInterestsRejected) {
  BoundView b;
  ViewRow r = row(1, 1);
  r.interests = nullptr;
  EXPECT_THROW(b.v.upsert(r), std::logic_error);
}

TEST(DepthView, FindMissingReturnsNpos) {
  BoundView b;
  b.v.upsert(row(2, 1));
  EXPECT_EQ(b.v.find_index(3), DepthView::npos);
  EXPECT_NE(b.v.find_index(2), DepthView::npos);
}

TEST(DepthView, Erase) {
  BoundView b;
  b.v.upsert(row(1, 1));
  b.v.upsert(row(2, 1));
  EXPECT_TRUE(b.v.erase(1));
  EXPECT_FALSE(b.v.erase(1));
  EXPECT_EQ(b.v.size(), 1u);
  EXPECT_EQ(b.v.find_index(1), DepthView::npos);
}

TEST(DepthView, LiveCountSkipsTombstones) {
  BoundView b;
  b.v.upsert(row(1, 1, 1, true));
  b.v.upsert(row(2, 1, 1, false));
  b.v.upsert(row(3, 1, 1, true));
  EXPECT_EQ(b.v.size(), 3u);
  EXPECT_EQ(b.v.live_count(), 2u);
}

TEST(DepthView, TotalProcessesSumsLiveRows) {
  BoundView b;
  b.v.upsert(row(1, 1, 10, true));
  b.v.upsert(row(2, 1, 20, false));  // tombstoned, not counted
  b.v.upsert(row(3, 1, 5, true));
  EXPECT_EQ(b.v.total_processes(), 15u);
}

TEST(DepthView, MaterializeReproducesRowBytes) {
  BoundView b;
  ViewRow r = row(4, 7, 12);
  r.delegates = {Address::parse("4.0.1"), Address::parse("4.0.0")};
  b.v.upsert(r);
  const std::size_t i = b.v.find_index(4);
  ASSERT_NE(i, DepthView::npos);
  const ViewRow back = b.v.materialize(i);
  EXPECT_EQ(back.infix, r.infix);
  EXPECT_EQ(back.version, r.version);
  EXPECT_EQ(back.process_count, r.process_count);
  EXPECT_EQ(back.alive, r.alive);
  // Delegate order is preserved exactly as published (no id reordering).
  EXPECT_EQ(back.delegates, r.delegates);
  EXPECT_EQ(*back.interests, *r.interests);
}

TEST(DepthView, DelegatesAreInternedIds) {
  BoundView b;
  ViewRow r = row(2, 1);
  r.delegates = {Address::parse("2.1.1"), Address::parse("2.1.2")};
  b.v.upsert(r);
  const std::size_t i = b.v.find_index(2);
  const auto ids = b.v.delegates(i);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(b.interns.addrs.resolve(ids[0]), r.delegates[0]);
  EXPECT_EQ(b.interns.addrs.resolve(ids[1]), r.delegates[1]);
  EXPECT_EQ(b.v.first_delegate(i), ids[0]);
}

TEST(DepthView, PooledSummariesAreShared) {
  // Structurally identical summaries collapse onto one pooled instance.
  BoundView b;
  b.v.upsert(row(1, 1));
  b.v.upsert(row(2, 1));
  EXPECT_EQ(b.v.interests_ptr(0).get(), b.v.interests_ptr(1).get());
  EXPECT_EQ(b.interns.summaries.size(), 1u);
}

TEST(MembershipView, DepthIndexingOneBased) {
  const auto self = Address::parse("1.2.3");
  TreeConfig cfg;
  cfg.depth = 3;
  cfg.redundancy = 2;
  Interns interns;
  MembershipView mv(self, cfg, interns);
  mv.view(1).upsert(row(0, 1));
  mv.view(3).upsert(row(7, 1));
  EXPECT_EQ(mv.view(1).size(), 1u);
  EXPECT_EQ(mv.view(2).size(), 0u);
  EXPECT_EQ(mv.view(3).size(), 1u);
  EXPECT_THROW(mv.view(0), std::logic_error);
  EXPECT_THROW(mv.view(4), std::logic_error);
}

TEST(MembershipView, SelfDepthMustMatchConfig) {
  TreeConfig cfg;
  cfg.depth = 3;
  Interns interns;
  EXPECT_THROW(MembershipView(Address::parse("1.2"), cfg, interns),
               std::logic_error);
}

TEST(MembershipView, KnownProcessesCountsDelegatesPerAppearance) {
  const auto self = Address::parse("1.2.3");
  TreeConfig cfg;
  cfg.depth = 3;
  Interns interns;
  MembershipView mv(self, cfg, interns);
  ViewRow r1 = row(0, 1);
  r1.delegates = {Address::parse("0.0.0"), Address::parse("0.0.1")};
  mv.view(1).upsert(r1);
  ViewRow r2 = row(4, 1);
  r2.delegates = {Address::parse("1.4.0")};
  mv.view(2).upsert(r2);
  ViewRow dead = row(9, 1, 1, false);
  mv.view(2).upsert(dead);
  EXPECT_EQ(mv.known_processes(), 3u);  // 2 + 1, tombstone excluded
}

TEST(MembershipView, SelfIdIsInterned) {
  TreeConfig cfg;
  cfg.depth = 2;
  Interns interns;
  MembershipView mv(Address::parse("3.1"), cfg, interns);
  EXPECT_EQ(interns.addrs.resolve(mv.self_id()), mv.self());
}

TEST(MembershipView, ToStringMentionsSelf) {
  TreeConfig cfg;
  cfg.depth = 2;
  Interns interns;
  MembershipView mv(Address::parse("3.1"), cfg, interns);
  EXPECT_NE(mv.to_string().find("3.1"), std::string::npos);
}

}  // namespace
}  // namespace pmc
