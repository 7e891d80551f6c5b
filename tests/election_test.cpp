#include "membership/election.hpp"

#include <gtest/gtest.h>

#include <string>

#include "filter/subscription.hpp"

namespace pmc {
namespace {

/// Interns `texts` into `table` in the order given.
std::vector<AddrId> ids(AddrInternTable& table,
                        std::initializer_list<const char*> texts) {
  std::vector<AddrId> out;
  for (const auto* t : texts) out.push_back(table.intern(Address::parse(t)));
  return out;
}

std::vector<std::string> elect(const AddrInternTable& table,
                               const std::vector<AddrId>& members,
                               std::size_t r) {
  std::vector<AddrId> out;
  elect_delegate_ids(members, r, table, out);
  std::vector<std::string> names;
  for (const AddrId id : out)
    names.push_back(table.resolve(id).to_string());
  return names;
}

using Names = std::vector<std::string>;

TEST(Election, SmallestAddressesChosen) {
  AddrInternTable table;
  const auto members = ids(table, {"1.5", "1.2", "1.9", "1.1", "1.7"});
  EXPECT_EQ(elect(table, members, 2), (Names{"1.1", "1.2"}));
}

TEST(Election, RanksByAddressNotInternOrder) {
  // Ids are first-intern order, and the components compare as numbers, not
  // as text: interned 1.9, 1.10, 1.2, the two smallest are 1.2 and 1.9.
  AddrInternTable table;
  const auto members = ids(table, {"1.9", "1.10", "1.2"});
  EXPECT_EQ(elect(table, members, 2), (Names{"1.2", "1.9"}));
}

TEST(Election, FewerMembersThanRKeepsAll) {
  AddrInternTable table;
  const auto members = ids(table, {"1.5", "1.2"});
  EXPECT_EQ(elect(table, members, 4), (Names{"1.2", "1.5"}));
}

TEST(Election, ExactlyR) {
  AddrInternTable table;
  const auto members = ids(table, {"3.1", "2.1", "1.1"});
  EXPECT_EQ(elect(table, members, 3), (Names{"1.1", "2.1", "3.1"}));
}

TEST(Election, DeterministicAcrossInputOrder) {
  // All subgroup members must elect identical delegates from any ordering —
  // the paper's "without explicit agreement" requirement.
  AddrInternTable table;
  const auto m1 = ids(table, {"1.5", "1.2", "1.9", "1.1"});
  const auto m2 = ids(table, {"1.9", "1.1", "1.5", "1.2"});
  EXPECT_EQ(elect(table, m1, 2), elect(table, m2, 2));
}

TEST(Election, EmptyMembership) {
  const AddrInternTable table;
  EXPECT_TRUE(elect(table, {}, 3).empty());
}

TEST(Election, ZeroRRejected) {
  AddrInternTable table;
  const auto members = ids(table, {"1.1"});
  EXPECT_THROW(elect(table, members, 0), std::logic_error);
}

TEST(Election, ResultSortedByAddress) {
  AddrInternTable table;
  const auto members = ids(table, {"9.9", "1.1", "5.5", "3.3", "7.7"});
  EXPECT_EQ(elect(table, members, 4), (Names{"1.1", "3.3", "5.5", "7.7"}));
}

TEST(Compaction, SkipsTombstonesAndSumsLiveCounts) {
  // A subgroup's row: live rows' interests merged, the R smallest of their
  // delegates, their counts summed. The tombstoned row holds the smallest
  // address, a count and an interest that would all show if it were read.
  Interns interns;
  DepthView table;
  table.bind(interns);
  const auto put = [&](AddrComponent infix, const char* subscription,
                       std::uint64_t count, bool alive,
                       std::initializer_list<const char*> delegates) {
    const auto dels = ids(interns.addrs, delegates);
    table.upsert_pooled(infix, dels,
                        interns.summaries.intern(InterestSummary::from(
                            Subscription::parse(subscription))),
                        count, /*version=*/1, alive);
  };
  put(1, "u < 0.2", 10, true, {"2.1.0", "2.1.4"});
  put(2, "u > 0.8", 20, false, {"2.0.0", "2.0.1"});
  put(3, "u > 0.4 && u < 0.5", 5, true, {"2.3.1", "2.1.2"});

  InterestSummary interests;
  std::vector<AddrId> candidates, delegates;
  EXPECT_EQ(compact_subgroup(table, 2, interests, candidates, delegates),
            15u);
  Names names;
  for (const AddrId id : delegates)
    names.push_back(interns.addrs.resolve(id).to_string());
  EXPECT_EQ(names, (Names{"2.1.0", "2.1.2"}));
  InterestSummary live = table.interests(0);
  live.merge(table.interests(2));
  EXPECT_EQ(interests, live);
  EXPECT_FALSE(interests.match(Event().with("u", 0.9)));

  // A table with no live row compacts to nothing, whatever the buffers
  // held before.
  DepthView dead;
  dead.bind(interns);
  dead.upsert_pooled(7, delegates, table.interests_ptr(0), 3, 1, false);
  EXPECT_EQ(compact_subgroup(dead, 2, interests, candidates, delegates), 0u);
  EXPECT_TRUE(delegates.empty());
  EXPECT_EQ(interests, InterestSummary());
}

}  // namespace
}  // namespace pmc
