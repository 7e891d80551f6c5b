#include "membership/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "addr/space.hpp"
#include "harness/workload.hpp"
#include "membership/election.hpp"

namespace pmc {
namespace {

TreeConfig cfg(std::size_t d, std::size_t r) {
  TreeConfig c;
  c.depth = d;
  c.redundancy = r;
  return c;
}

std::vector<Member> regular_members(AddrComponent a, std::size_t d,
                                    double pd = 1.0, std::uint64_t seed = 1) {
  Rng rng(seed);
  return uniform_interest_members(AddressSpace::regular(a, d), pd, rng);
}

/// GroupTree stores its rows through an Interns the caller owns; this
/// helper bundles the two with the right lifetime.
struct Tree {
  Interns interns;
  TreeConfig config;
  GroupTree tree;
  Tree(TreeConfig c, std::vector<Member> members)
      : config(c), tree(c, std::move(members), interns) {}

  /// Whether `a` appears in its own depth-`depth` table, as a delegate of
  /// the row for its depth-`depth` subgroup (a leaf row at depth d).
  bool appears_at(const Address& a, std::size_t depth) const {
    const DepthView& dv = tree.view_at(a.prefix(depth - 1));
    const std::size_t i = dv.find_index(a.component(depth - 1));
    if (i == DepthView::npos) return false;
    const auto ids = dv.delegates(i);
    return std::find(ids.begin(), ids.end(), interns.addrs.find(a)) !=
           ids.end();
  }

  /// compact_subgroup of `p`'s table: the row describing `p` in its
  /// parent's table (for the root, the whole group).
  struct Compacted {
    std::uint64_t count = 0;
    InterestSummary interests;
    std::vector<AddrId> delegates;
  };
  Compacted compact(const Prefix& p) const {
    Compacted out;
    std::vector<AddrId> candidates;
    out.count = compact_subgroup(tree.view_at(p), config.redundancy,
                                 out.interests, candidates, out.delegates);
    return out;
  }

  /// The row describing non-root `p` in its parent's table, or npos.
  std::size_t row_of(const Prefix& p) const {
    return tree.view_at(p.parent()).find_index(p.infix());
  }

  std::vector<std::string> names(std::span<const AddrId> ids) const {
    std::vector<std::string> out;
    for (const AddrId id : ids)
      out.push_back(interns.addrs.resolve(id).to_string());
    return out;
  }
};

Prefix prefix_of(const char* address, std::size_t len) {
  return Address::parse(address).prefix(len);
}

TEST(GroupTree, ProcessCountMatchesPopulation) {
  const Tree t(cfg(3, 2), regular_members(3, 3));
  EXPECT_EQ(t.compact(Prefix::root()).count, 27u);
}

TEST(GroupTree, RootViewHasOneRowPerPopulatedChild) {
  const Tree t(cfg(3, 2), regular_members(3, 3));
  const auto& root_view = t.tree.view_at(Prefix::root());
  ASSERT_EQ(root_view.size(), 3u);
  for (std::size_t i = 0; i < root_view.size(); ++i) {
    EXPECT_EQ(root_view.process_count(i), 9u);
    EXPECT_EQ(root_view.delegates(i).size(), 2u);
  }
}

TEST(GroupTree, LeafViewListsIndividualProcesses) {
  const Tree t(cfg(3, 2), regular_members(3, 3));
  const auto self = Address::parse("1.1.0");
  const auto& leaf = t.tree.view_at(self.prefix(2));
  ASSERT_EQ(leaf.size(), 3u);
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    EXPECT_EQ(leaf.process_count(i), 1u);
    EXPECT_EQ(leaf.delegates(i).size(), 1u);
  }
}

TEST(GroupTree, DelegatesAreSmallestAddresses) {
  const Tree t(cfg(3, 2), regular_members(3, 3));
  // Delegates of subgroup 2.1 are its two smallest members.
  const Prefix p = prefix_of("2.1.0", 2);
  const std::size_t row = t.row_of(p);
  ASSERT_NE(row, DepthView::npos);
  EXPECT_EQ(t.names(t.tree.view_at(p.parent()).delegates(row)),
            (std::vector<std::string>{"2.1.0", "2.1.1"}));
}

TEST(GroupTree, DelegatesAreNested) {
  // A delegate at depth i is also a delegate at every depth below (paper:
  // "it appears in all successive depths") under smallest-address election.
  const Tree t(cfg(3, 3), regular_members(4, 3));
  const auto root_delegates = t.compact(Prefix::root()).delegates;
  ASSERT_EQ(root_delegates.size(), 3u);
  for (const AddrId id : root_delegates) {
    const Address& d = t.interns.addrs.resolve(id);
    for (std::size_t depth = 1; depth <= 3; ++depth)
      EXPECT_TRUE(t.appears_at(d, depth))
          << d.to_string() << " at depth " << depth;
  }
}

TEST(GroupTree, RepresentedCountsEq4) {
  const Tree t(cfg(3, 2), regular_members(3, 3));
  EXPECT_EQ(t.compact(Prefix::root()).count, 27u);
  for (const auto& [len, count] : {std::pair<std::size_t, std::uint64_t>{1, 9},
                                   {2, 3}}) {
    const Prefix p = prefix_of("1.0.0", len);
    const std::size_t row = t.row_of(p);
    ASSERT_NE(row, DepthView::npos);
    EXPECT_EQ(t.tree.view_at(p.parent()).process_count(row), count);
  }
  EXPECT_EQ(t.row_of(prefix_of("9.9.9", 1)), DepthView::npos);
}

TEST(GroupTree, ViewSizesMatchEq12) {
  // m_i = R*a for i < d and a for i = d in a regular tree.
  const std::size_t a = 4, d = 3, r = 2;
  const Tree t(cfg(d, r),
               regular_members(static_cast<AddrComponent>(a), d));
  const auto self = Address::parse("1.2.3");
  for (std::size_t depth = 1; depth <= d; ++depth) {
    const auto& view = t.tree.view_at(self.prefix(depth - 1));
    std::size_t members = 0;
    for (std::size_t i = 0; i < view.size(); ++i)
      members += view.delegates(i).size();
    EXPECT_EQ(members, depth < d ? r * a : a) << "depth " << depth;
  }
}

TEST(GroupTree, SubgroupSummaryCoversMemberInterests) {
  // The regrouped interests of every prefix must match any event a member
  // subscription matches (no false negatives through the whole tree).
  const auto members = regular_members(3, 3, 0.15, /*seed=*/7);
  const Tree t(cfg(3, 2), members);
  const InterestSummary whole_group = t.compact(Prefix::root()).interests;
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const Event e = make_uniform_event(0, static_cast<std::uint64_t>(trial),
                                       rng);
    for (const auto& m : members) {
      if (!m.subscription.match(e)) continue;
      EXPECT_TRUE(whole_group.match(e));
      for (std::size_t len = 1; len < 3; ++len) {
        const Prefix p = m.address.prefix(len);
        EXPECT_TRUE(t.tree.view_at(p.parent()).interests(t.row_of(p)).match(e));
      }
    }
  }
}

TEST(GroupTree, EveryMemberHasALeafRowWithItsInterests) {
  const auto members = regular_members(3, 2, 0.5);
  const Tree t(cfg(2, 1), members);
  for (const auto& m : members) {
    ASSERT_TRUE(t.appears_at(m.address, 2)) << m.address.to_string();
    const DepthView& leaf = t.tree.view_at(m.address.prefix(1));
    const std::size_t i = leaf.find_index(m.address.component(1));
    EXPECT_EQ(leaf.delegates(i).size(), 1u);
    EXPECT_EQ(leaf.process_count(i), 1u);
    EXPECT_EQ(leaf.interests(i), InterestSummary::from(m.subscription));
  }
  // Subtree 3 is unpopulated.
  EXPECT_EQ(t.tree.view_at(Prefix::root()).find_index(3), DepthView::npos);
}

TEST(GroupTree, LeafTablesListEveryMemberOnce) {
  const auto members = regular_members(3, 2);
  const Tree t(cfg(2, 1), members);
  std::vector<Address> listed;
  const DepthView& root = t.tree.view_at(Prefix::root());
  for (std::size_t r = 0; r < root.size(); ++r) {
    const DepthView& leaf = t.tree.view_at(Prefix({root.infix(r)}));
    for (std::size_t i = 0; i < leaf.size(); ++i)
      for (const AddrId id : leaf.delegates(i))
        listed.push_back(t.interns.addrs.resolve(id));
  }
  ASSERT_EQ(listed.size(), 9u);
  for (std::size_t i = 1; i < listed.size(); ++i)
    EXPECT_LT(listed[i - 1], listed[i]);
  for (const auto& m : members)
    EXPECT_NE(std::find(listed.begin(), listed.end(), m.address),
              listed.end());
}

TEST(GroupTree, DepthOneDegeneratesToFlatGroup) {
  const Tree t(cfg(1, 2), regular_members(5, 1));
  EXPECT_EQ(t.compact(Prefix::root()).count, 5u);
  const auto& view = t.tree.view_at(Prefix::root());
  EXPECT_EQ(view.size(), 5u);
}

TEST(GroupTree, IrregularPopulation) {
  // A sparse, irregular population: only some leaf subgroups exist.
  std::vector<Member> members;
  for (const auto* t : {"0.0.0", "0.0.1", "0.2.4", "3.1.1", "3.1.2"})
    members.push_back(Member{Address::parse(t), Subscription()});
  const Tree t(cfg(3, 2), members);
  EXPECT_EQ(t.compact(Prefix::root()).count, 5u);
  const auto& root_view = t.tree.view_at(Prefix::root());
  ASSERT_EQ(root_view.size(), 2u);  // subtrees 0 and 3
  EXPECT_EQ(root_view.process_count(t.row_of(prefix_of("0.0.0", 1))), 3u);
  EXPECT_EQ(root_view.process_count(t.row_of(prefix_of("3.0.0", 1))), 2u);
}

TEST(GroupTree, MemberOrderDoesNotMatter) {
  // Members in address order are read as they are; any other order is
  // read through a sorted index. Both build the same tables, versions
  // included.
  const auto sorted = regular_members(3, 3, 0.4, /*seed=*/9);
  auto shuffled = sorted;
  Rng rng(9);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  ASSERT_FALSE(std::ranges::equal(shuffled, sorted, {}, &Member::address,
                                  &Member::address));
  const Tree a(cfg(3, 2), sorted);
  const Tree b(cfg(3, 2), shuffled);
  for (const auto& m : sorted) {
    for (std::size_t len = 0; len < 3; ++len) {
      const DepthView& x = a.tree.view_at(m.address.prefix(len));
      const DepthView& y = b.tree.view_at(m.address.prefix(len));
      ASSERT_EQ(x.size(), y.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x.infix(i), y.infix(i));
        EXPECT_EQ(x.version(i), y.version(i));
        EXPECT_EQ(x.process_count(i), y.process_count(i));
        EXPECT_EQ(x.interests(i), y.interests(i));
        EXPECT_EQ(a.names(x.delegates(i)), b.names(y.delegates(i)));
      }
    }
  }
}

TEST(GroupTree, EveryRowIsTheCompactionOfItsSubgroupsTable) {
  // The tree writes each upper row with the rule SyncNode recompacts live
  // views with: for every populated non-root prefix, its row in the
  // parent's table is compact_subgroup of its own table. Coarsened rows
  // (Sec. 6) keep the delegates and count but not the exact interests.
  std::vector<Member> irregular;
  for (const auto& m : regular_members(4, 3, 0.5, /*seed=*/11))
    if (m.address.component(2) % 3 != 1 && m.address.component(1) != 2)
      irregular.push_back(m);
  struct Shape {
    TreeConfig config;
    std::vector<Member> members;
    std::size_t coarsen_depth_leq;
  };
  const Shape shapes[] = {
      {cfg(3, 2), regular_members(3, 3, 0.4), 0},
      {cfg(3, 2), irregular, 0},
      {cfg(4, 3), regular_members(3, 4, 0.3, /*seed=*/5), 1},
  };
  for (const Shape& shape : shapes) {
    Interns interns;
    GroupTreeOptions options;
    options.coarsen_depth_leq = shape.coarsen_depth_leq;
    const GroupTree tree(shape.config, shape.members, interns, options);
    std::vector<Prefix> prefixes;
    for (const auto& m : shape.members)
      for (std::size_t len = 1; len < shape.config.depth; ++len)
        prefixes.push_back(m.address.prefix(len));
    std::sort(prefixes.begin(), prefixes.end());
    prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                   prefixes.end());
    for (const Prefix& p : prefixes) {
      SCOPED_TRACE(p.to_string());
      InterestSummary interests;
      std::vector<AddrId> candidates, delegates;
      const std::uint64_t count =
          compact_subgroup(tree.view_at(p), shape.config.redundancy,
                           interests, candidates, delegates);
      const DepthView& parent = tree.view_at(p.parent());
      const std::size_t row = parent.find_index(p.infix());
      ASSERT_NE(row, DepthView::npos);
      EXPECT_TRUE(parent.alive(row));
      EXPECT_EQ(parent.process_count(row), count);
      EXPECT_TRUE(std::ranges::equal(parent.delegates(row), delegates));
      if (p.length() > shape.coarsen_depth_leq) {
        EXPECT_EQ(parent.interests(row), interests);
      }
    }
  }
}

TEST(GroupTree, DuplicateAddressRejected) {
  std::vector<Member> members;
  members.push_back(Member{Address::parse("0.0"), Subscription()});
  members.push_back(Member{Address::parse("0.0"), Subscription()});
  Interns interns;
  EXPECT_THROW(GroupTree(cfg(2, 1), members, interns), std::logic_error);
}

TEST(GroupTree, WrongDepthAddressRejected) {
  std::vector<Member> members;
  members.push_back(Member{Address::parse("0.0.0"), Subscription()});
  Interns interns;
  EXPECT_THROW(GroupTree(cfg(2, 1), members, interns), std::logic_error);
}

TEST(GroupTree, MaterializeViewMatchesShared) {
  const Tree t(cfg(3, 2), regular_members(3, 3, 0.4));
  const auto self = Address::parse("1.2.0");
  const auto mv = t.tree.materialize_view(self);
  for (std::size_t depth = 1; depth <= 3; ++depth) {
    const auto& shared = t.tree.view_at(self.prefix(depth - 1));
    ASSERT_EQ(mv.view(depth).size(), shared.size());
    for (std::size_t i = 0; i < shared.size(); ++i) {
      EXPECT_EQ(mv.view(depth).infix(i), shared.infix(i));
      EXPECT_EQ(mv.view(depth).process_count(i), shared.process_count(i));
    }
  }
  // Eq. 2 knowledge: R*a*(d-1) + a = 2*3*2 + 3 = 15.
  EXPECT_EQ(mv.known_processes(), 15u);
}

}  // namespace
}  // namespace pmc
