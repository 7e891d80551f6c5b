#include "membership/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "filter/subscription.hpp"
#include "wire/messages.hpp"

namespace pmc {
namespace {

/// A row built the way this runtime builds them, appended to `batch`, an
/// in-memory batch of `interns`: delegates (by default "<infix>.0.0")
/// interned into the batch's pool and the summary pooled. Returns a copy,
/// which still points at its delegates in the batch's pool.
ViewRow row(Interns& interns, RowBatch& batch, AddrComponent infix,
            std::uint64_t version, std::uint64_t count = 1, bool alive = true,
            const std::vector<std::string>& delegates = {}) {
  ViewRow r;
  r.infix = infix;
  r.version = version;
  r.process_count = count;
  r.alive = alive;
  r.interests =
      interns.summaries.intern(InterestSummary::from(Subscription()));
  std::vector<AddrId> ids;
  for (const auto& d : delegates)
    ids.push_back(interns.addrs.intern(Address::parse(d)));
  if (delegates.empty())
    ids.push_back(
        interns.addrs.intern(Address::parse(std::to_string(infix) + ".0.0")));
  return batch.append(1, r, ids);
}

/// A row of the decoded batch `batch`: its delegates are appended to the
/// batch's address list and pool, and its summary is a fresh, unpooled
/// handle.
ViewRow wire_row(RowBatch& batch, AddrComponent infix, std::uint64_t version,
                 const std::vector<const char*>& delegates,
                 const char* subscription = "b > 4") {
  ViewRow r;
  r.infix = infix;
  r.version = version;
  r.process_count = 1;
  std::vector<AddrId> ids;
  for (const char* d : delegates) {
    ids.push_back(static_cast<AddrId>(batch.addresses.size()));
    batch.addresses.push_back(Address::parse(d));
  }
  r.interests = std::make_shared<const InterestSummary>(
      InterestSummary::from(Subscription::parse(subscription)));
  return batch.append(1, r, ids);
}

/// A DepthView needs intern state to store rows; the fixture owns one, and
/// the in-memory batch its rows travel in.
struct BoundView {
  Interns interns;
  RowBatch local{interns};
  DepthView v;
  BoundView() { v.bind(interns); }

  ViewRow row(AddrComponent infix, std::uint64_t version,
              std::uint64_t count = 1, bool alive = true,
              const std::vector<std::string>& delegates = {}) {
    return pmc::row(interns, local, infix, version, count, alive, delegates);
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

TEST(DepthView, AppendSharesThePooledHandle) {
  BoundView b;
  b.upsert(b.row(3, 1));
  RowBatch out(b.interns);
  const ViewRow back = out.append(1, b.v, 0);
  EXPECT_EQ(back.interests.get(), &b.v.interests(0));
  // Another view of the same runtime stores the handle as it is.
  DepthView other;
  other.bind(b.interns);
  ASSERT_TRUE(other.upsert(back, out));
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
  RowBatch batch(foreign);
  const ViewRow r = row(foreign, batch, 1, 1);
  EXPECT_THROW(b.v.upsert(r, batch), std::logic_error);
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

TEST(DepthView, AppendReproducesRowBytes) {
  BoundView b;
  const ViewRow r = b.row(4, 7, 12, true, {"4.0.1", "4.0.0"});
  b.upsert(r);
  const std::size_t i = b.v.find_index(4);
  ASSERT_NE(i, DepthView::npos);
  RowBatch out(b.interns);
  const ViewRow back = out.append(1, b.v, i);
  EXPECT_EQ(back.infix, r.infix);
  EXPECT_EQ(back.version, r.version);
  EXPECT_EQ(back.process_count, r.process_count);
  EXPECT_EQ(back.alive, r.alive);
  // Delegate order is preserved exactly as published (no id reordering).
  EXPECT_TRUE(
      std::ranges::equal(out.delegates(back), b.local.delegates(r)));
  EXPECT_EQ(out.delegates(back).size(), 2u);
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
  EXPECT_EQ(b.interns.addrs.resolve(ids[0]),
            wire.address(wire.delegates(r)[0]));
  EXPECT_EQ(b.interns.addrs.resolve(ids[1]),
            wire.address(wire.delegates(r)[1]));
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
  // A view's rows, appended once to an in-memory batch and once sent
  // through the codec, land identically in two fresh views of the same
  // runtime: same columns, same delegate ids, pooled summary handles. The
  // rows carry one to four delegates, so each form's pool holds slices of
  // different lengths back to back.
  BoundView src;
  const char* subscriptions[] = {"b > 4", "c < 30.0", "b > 4",
                                 "e == \"Bob\""};
  for (AddrComponent infix = 0; infix < 4; ++infix) {
    std::vector<std::string> delegates;
    for (int k = 0; k <= infix; ++k)
      delegates.push_back(std::to_string(infix) + ".1." + std::to_string(k));
    ViewRow r =
        src.row(infix, 10 + infix, 3 + infix, infix != 2, delegates);
    r.interests = src.interns.summaries.intern(InterestSummary::from(
        Subscription::parse(subscriptions[infix])));
    ASSERT_TRUE(src.upsert(r));
  }
  RowBatch local(src.interns);
  for (std::size_t i = 0; i < src.v.size(); ++i) local.append(1, src.v, i);
  ASSERT_EQ(local.pool.size(), src.v.delegate_count());
  ASSERT_EQ(local.pool.size(), 10u);
  MembershipUpdateMsg update;
  update.sender =
      AddrRef(src.interns, src.interns.addrs.intern(Address::parse("0.0.0")));
  update.rows = local;
  const MessagePtr decoded = wire::decode_message(wire::encode_message(update));
  const auto& decoded_update =
      static_cast<const MembershipUpdateMsg&>(*decoded);
  EXPECT_EQ(decoded_update.sender.interns, nullptr);
  EXPECT_EQ(decoded_update.sender.address(), Address::parse("0.0.0"));
  const RowBatch& wire = decoded_update.rows;
  ASSERT_EQ(wire.interns, nullptr);
  ASSERT_EQ(wire.rows.size(), local.rows.size());
  ASSERT_EQ(wire.pool.size(), local.pool.size());
  for (std::size_t r = 0; r < wire.rows.size(); ++r) {
    const auto mem_ids = local.delegates(local.rows[r].row);
    const auto dec_ids = wire.delegates(wire.rows[r].row);
    ASSERT_EQ(dec_ids.size(), mem_ids.size());
    ASSERT_EQ(mem_ids.size(), r + 1);
    for (std::size_t k = 0; k < mem_ids.size(); ++k)
      EXPECT_EQ(wire.address(dec_ids[k]), local.address(mem_ids[k]));
  }

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
  RowBatch local(interns);
  MembershipView mv(self, cfg, interns);
  mv.view(1).upsert(row(interns, local, 0, 1), local);
  mv.view(3).upsert(row(interns, local, 7, 1), local);
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
  RowBatch local(interns);
  MembershipView mv(self, cfg, interns);
  mv.view(1).upsert(row(interns, local, 0, 1, 1, true, {"0.0.0", "0.0.1"}),
                    local);
  mv.view(2).upsert(row(interns, local, 4, 1, 1, true, {"1.4.0"}), local);
  mv.view(2).upsert(row(interns, local, 9, 1, 1, false), local);
  EXPECT_EQ(mv.known_processes(), 3u);  // 2 + 1, tombstone excluded
}

TEST(MembershipView, SelfIdIsInterned) {
  TreeConfig cfg;
  cfg.depth = 2;
  Interns interns;
  MembershipView mv(Address::parse("3.1"), cfg, interns);
  EXPECT_EQ(interns.addrs.resolve(mv.self_id()), mv.self());
}

TEST(MembershipView, TablesForHandsOutItsOwnTablesToItsOwnProcessOnly) {
  TreeConfig cfg;
  cfg.depth = 2;
  Interns interns;
  const MembershipView mv(Address::parse("3.1"), cfg, interns);
  const auto tables = mv.tables_for(Address::parse("3.1"));
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0], &mv.view(1));
  EXPECT_EQ(tables[1], &mv.view(2));
  EXPECT_THROW(mv.tables_for(Address::parse("3.2")), std::logic_error);
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
