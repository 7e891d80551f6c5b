#include "membership/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "filter/subscription.hpp"
#include "wire/messages.hpp"

namespace pmc {
namespace {

/// A row built the way this runtime builds them: delegate interned and
/// summary pooled in `interns`, so an in-memory batch can carry it.
ViewRow row(Interns& interns, AddrComponent infix, std::uint64_t version,
            std::uint64_t count = 1, bool alive = true) {
  ViewRow r;
  r.infix = infix;
  r.version = version;
  r.process_count = count;
  r.alive = alive;
  r.delegates = {
      interns.addrs.intern(Address::parse(std::to_string(infix) + ".0.0"))};
  r.interests =
      interns.summaries.intern(InterestSummary::from(Subscription()));
  return r;
}

/// A row of the decoded batch `batch`: its delegates are appended to the
/// batch's address list, and its summary is a fresh, unpooled handle.
ViewRow wire_row(RowBatch& batch, AddrComponent infix, std::uint64_t version,
                 const std::vector<const char*>& delegates,
                 const char* subscription = "b > 4") {
  ViewRow r;
  r.infix = infix;
  r.version = version;
  r.process_count = 1;
  for (const char* d : delegates) {
    r.delegates.push_back(static_cast<AddrId>(batch.addresses.size()));
    batch.addresses.push_back(Address::parse(d));
  }
  r.interests = std::make_shared<const InterestSummary>(
      InterestSummary::from(Subscription::parse(subscription)));
  return r;
}

/// A DepthView needs intern state to store rows; the fixture owns one, and
/// the in-memory batch its rows travel in.
struct BoundView {
  Interns interns;
  RowBatch local{interns};
  DepthView v;
  BoundView() { v.bind(interns); }

  ViewRow row(AddrComponent infix, std::uint64_t version,
              std::uint64_t count = 1, bool alive = true) {
    return pmc::row(interns, infix, version, count, alive);
  }
  bool upsert(const ViewRow& r) { return v.upsert(r, local); }
};

TEST(DepthView, UpsertInsertsSorted) {
  BoundView b;
  EXPECT_TRUE(b.upsert(b.row(5, 1)));
  EXPECT_TRUE(b.upsert(b.row(1, 1)));
  EXPECT_TRUE(b.upsert(b.row(3, 1)));
  ASSERT_EQ(b.v.size(), 3u);
  EXPECT_EQ(b.v.infix(0), 1);
  EXPECT_EQ(b.v.infix(1), 3);
  EXPECT_EQ(b.v.infix(2), 5);
}

TEST(DepthView, NewerVersionWins) {
  BoundView b;
  b.upsert(b.row(1, 1, 10));
  EXPECT_TRUE(b.upsert(b.row(1, 2, 20)));
  EXPECT_EQ(b.v.process_count(b.v.find_index(1)), 20u);
  EXPECT_EQ(b.v.size(), 1u);
}

TEST(DepthView, OlderOrEqualVersionIgnored) {
  // The version decides before any interning: a stale or equal-version
  // decoded row with never-seen delegates and a never-seen summary leaves
  // the row, the intern state and the mutation counter exactly as they
  // were.
  BoundView b;
  b.upsert(b.row(1, 5, 10));
  const auto addrs = b.interns.addrs.size();
  const auto summaries = b.interns.summaries.size();
  const auto mutations = b.v.mutations();
  for (const std::uint64_t version : {std::uint64_t{3}, std::uint64_t{5}}) {
    RowBatch wire;
    const ViewRow fresh = wire_row(wire, 1, version, {"1.7.7", "1.8.8"});
    EXPECT_FALSE(b.v.upsert(fresh, wire)) << version;
    EXPECT_EQ(b.interns.addrs.size(), addrs) << version;
    EXPECT_EQ(b.interns.summaries.size(), summaries) << version;
    EXPECT_EQ(b.v.mutations(), mutations) << version;
  }
  EXPECT_EQ(b.v.process_count(b.v.find_index(1)), 10u);
}

TEST(DepthView, FirstSightAdoptsTheDecodedHandle) {
  // A decoded summary the pool has not seen is stored without a copy: the
  // row's own allocation becomes the pooled instance.
  BoundView b;
  RowBatch wire;
  const ViewRow r = wire_row(wire, 1, 1, {"1.0.0"});
  ASSERT_TRUE(b.v.upsert(r, wire));
  EXPECT_EQ(b.v.interests_ptr(0).get(), r.interests.get());
  EXPECT_EQ(b.interns.summaries.size(), 1u);
}

TEST(DepthView, MaterializeSharesThePooledHandle) {
  BoundView b;
  b.upsert(b.row(3, 1));
  const ViewRow back = b.v.materialize(0);
  EXPECT_EQ(back.interests.get(), &b.v.interests(0));
  // Another view of the same runtime stores the handle as it is.
  DepthView other;
  other.bind(b.interns);
  ASSERT_TRUE(other.upsert(back, b.local));
  EXPECT_EQ(other.interests_ptr(0).get(), back.interests.get());
  EXPECT_EQ(b.interns.summaries.size(), 1u);
}

TEST(DepthView, NullInterestsRejected) {
  BoundView b;
  ViewRow r = b.row(1, 1);
  r.interests = nullptr;
  EXPECT_THROW(b.upsert(r), std::logic_error);
}

TEST(DepthView, InMemoryBatchOfAnotherRuntimeRejected) {
  // Ids and pooled handles mean nothing outside their runtime: shards
  // share nothing, so a batch built against other intern state is a bug.
  BoundView b;
  Interns foreign;
  const ViewRow r = row(foreign, 1, 1);
  EXPECT_THROW(b.v.upsert(r, RowBatch(foreign)), std::logic_error);
  EXPECT_TRUE(b.v.empty());
}

TEST(DepthView, FindMissingReturnsNpos) {
  BoundView b;
  b.upsert(b.row(2, 1));
  EXPECT_EQ(b.v.find_index(3), DepthView::npos);
  EXPECT_NE(b.v.find_index(2), DepthView::npos);
}

TEST(DepthView, LiveCountSkipsTombstones) {
  BoundView b;
  b.upsert(b.row(1, 1, 1, true));
  b.upsert(b.row(2, 1, 1, false));
  b.upsert(b.row(3, 1, 1, true));
  EXPECT_EQ(b.v.size(), 3u);
  EXPECT_EQ(b.v.live_count(), 2u);
}

TEST(DepthView, TotalProcessesSumsLiveRows) {
  BoundView b;
  b.upsert(b.row(1, 1, 10, true));
  b.upsert(b.row(2, 1, 20, false));  // tombstoned, not counted
  b.upsert(b.row(3, 1, 5, true));
  EXPECT_EQ(b.v.total_processes(), 15u);
}

TEST(DepthView, MaterializeReproducesRowBytes) {
  BoundView b;
  ViewRow r = b.row(4, 7, 12);
  r.delegates = {b.interns.addrs.intern(Address::parse("4.0.1")),
                 b.interns.addrs.intern(Address::parse("4.0.0"))};
  b.upsert(r);
  const std::size_t i = b.v.find_index(4);
  ASSERT_NE(i, DepthView::npos);
  const ViewRow back = b.v.materialize(i);
  EXPECT_EQ(back.infix, r.infix);
  EXPECT_EQ(back.version, r.version);
  EXPECT_EQ(back.process_count, r.process_count);
  EXPECT_EQ(back.alive, r.alive);
  // Delegate order is preserved exactly as published (no id reordering).
  EXPECT_EQ(back.delegates, r.delegates);
  EXPECT_EQ(back.interests.get(), r.interests.get());
}

TEST(DepthView, DecodedDelegatesAreInterned) {
  BoundView b;
  RowBatch wire;
  const ViewRow r = wire_row(wire, 2, 1, {"2.1.1", "2.1.2"});
  b.v.upsert(r, wire);
  const std::size_t i = b.v.find_index(2);
  const auto ids = b.v.delegates(i);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(b.interns.addrs.resolve(ids[0]), wire.address(r.delegates[0]));
  EXPECT_EQ(b.interns.addrs.resolve(ids[1]), wire.address(r.delegates[1]));
  EXPECT_EQ(b.v.first_delegate(i), ids[0]);
}

TEST(DepthView, DecodedSummariesArePooled) {
  // Structurally identical decoded summaries collapse onto one pooled
  // instance.
  BoundView b;
  RowBatch wire;
  const ViewRow r1 = wire_row(wire, 1, 1, {"1.0.0"});
  const ViewRow r2 = wire_row(wire, 2, 1, {"2.0.0"});
  ASSERT_NE(r1.interests.get(), r2.interests.get());
  b.v.upsert(r1, wire);
  b.v.upsert(r2, wire);
  EXPECT_EQ(b.v.interests_ptr(0).get(), b.v.interests_ptr(1).get());
  EXPECT_EQ(b.interns.summaries.size(), 1u);
}

TEST(DepthView, BatchIsAdoptedAlikeInMemoryAndOverTheWire) {
  // A view's rows, materialized once into an in-memory batch and once
  // through the codec, land identically in two fresh views of the same
  // runtime: same columns, same delegate ids, pooled summary handles.
  BoundView src;
  const char* subscriptions[] = {"b > 4", "c < 30.0", "b > 4",
                                 "e == \"Bob\""};
  for (AddrComponent infix = 0; infix < 4; ++infix) {
    ViewRow r = src.row(infix, 10 + infix, 3 + infix, infix != 2);
    r.delegates.push_back(src.interns.addrs.intern(
        Address::parse(std::to_string(infix) + ".1.1")));
    r.interests = src.interns.summaries.intern(InterestSummary::from(
        Subscription::parse(subscriptions[infix])));
    ASSERT_TRUE(src.upsert(r));
  }
  RowBatch local(src.interns);
  for (std::size_t i = 0; i < src.v.size(); ++i)
    local.rows.push_back(DepthRow{1, src.v.materialize(i)});
  MembershipUpdateMsg update;
  update.sender = Address::parse("0.0.0");
  update.rows = local;
  const MessagePtr decoded = wire::decode_message(wire::encode_message(update));
  const RowBatch& wire = static_cast<const MembershipUpdateMsg&>(*decoded).rows;
  ASSERT_EQ(wire.interns, nullptr);

  DepthView mem;
  DepthView dec;
  mem.bind(src.interns);
  dec.bind(src.interns);
  for (const auto& dr : local) EXPECT_TRUE(mem.upsert(dr.row, local));
  for (const auto& dr : wire) EXPECT_TRUE(dec.upsert(dr.row, wire));
  ASSERT_EQ(mem.size(), src.v.size());
  ASSERT_EQ(dec.size(), src.v.size());
  const auto pooled = src.interns.summaries.size();
  for (std::size_t i = 0; i < mem.size(); ++i) {
    EXPECT_EQ(dec.infix(i), mem.infix(i));
    EXPECT_EQ(dec.version(i), mem.version(i));
    EXPECT_EQ(dec.process_count(i), mem.process_count(i));
    EXPECT_EQ(dec.alive(i), mem.alive(i));
    EXPECT_TRUE(std::ranges::equal(dec.delegates(i), mem.delegates(i)));
    EXPECT_TRUE(std::ranges::equal(mem.delegates(i), src.v.delegates(i)));
    for (const DepthView* v : {&mem, &dec}) {
      const auto& h = v->interests_ptr(i);
      EXPECT_EQ(h.get(), src.interns.summaries.intern(h).get());
    }
  }
  EXPECT_EQ(src.interns.summaries.size(), pooled);  // nothing was unpooled

  // A stale row in either form leaves the intern state and the table as
  // they were — a decoded one even with never-seen delegates and summary.
  const auto addrs = src.interns.addrs.size();
  const auto mem_mutations = mem.mutations();
  const auto dec_mutations = dec.mutations();
  for (const auto& dr : local) EXPECT_FALSE(mem.upsert(dr.row, local));
  for (const auto& dr : wire) EXPECT_FALSE(dec.upsert(dr.row, wire));
  RowBatch stale;
  const ViewRow fresh =
      wire_row(stale, dec.infix(1), dec.version(1) - 1, {"7.7.7"}, "d > 1");
  EXPECT_FALSE(dec.upsert(fresh, stale));
  EXPECT_EQ(src.interns.addrs.size(), addrs);
  EXPECT_EQ(src.interns.summaries.size(), pooled);
  EXPECT_EQ(mem.mutations(), mem_mutations);
  EXPECT_EQ(dec.mutations(), dec_mutations);
}

TEST(MembershipView, DepthIndexingOneBased) {
  const auto self = Address::parse("1.2.3");
  TreeConfig cfg;
  cfg.depth = 3;
  cfg.redundancy = 2;
  Interns interns;
  const RowBatch local(interns);
  MembershipView mv(self, cfg, interns);
  mv.view(1).upsert(row(interns, 0, 1), local);
  mv.view(3).upsert(row(interns, 7, 1), local);
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
  const RowBatch local(interns);
  MembershipView mv(self, cfg, interns);
  ViewRow r1 = row(interns, 0, 1);
  r1.delegates = {interns.addrs.intern(Address::parse("0.0.0")),
                  interns.addrs.intern(Address::parse("0.0.1"))};
  mv.view(1).upsert(r1, local);
  ViewRow r2 = row(interns, 4, 1);
  r2.delegates = {interns.addrs.intern(Address::parse("1.4.0"))};
  mv.view(2).upsert(r2, local);
  mv.view(2).upsert(row(interns, 9, 1, 1, false), local);
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
