#include "addr/address.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace pmc {
namespace {

Address addr(std::initializer_list<AddrComponent> comps) {
  return Address(std::vector<AddrComponent>(comps));
}

TEST(Address, ParseDotted) {
  const auto a = Address::parse("128.178.73.3");
  ASSERT_EQ(a.depth(), 4u);
  EXPECT_EQ(a.component(0), 128);
  EXPECT_EQ(a.component(3), 3);
  EXPECT_EQ(a.to_string(), "128.178.73.3");
}

TEST(Address, ParseSingleComponent) {
  const auto a = Address::parse("7");
  EXPECT_EQ(a.depth(), 1u);
  EXPECT_EQ(a.component(0), 7);
}

TEST(Address, ParseErrors) {
  EXPECT_THROW(Address::parse(""), std::invalid_argument);
  EXPECT_THROW(Address::parse("1..2"), std::invalid_argument);
  EXPECT_THROW(Address::parse("1.2."), std::invalid_argument);
  EXPECT_THROW(Address::parse("1.x.2"), std::invalid_argument);
  EXPECT_THROW(Address::parse("99999"), std::invalid_argument);  // > 0xffff
}

TEST(Address, LexicographicOrdering) {
  EXPECT_LT(addr({1, 2, 3}), addr({1, 2, 4}));
  EXPECT_LT(addr({1, 2, 3}), addr({2, 0, 0}));
  EXPECT_LT(addr({1, 2}), addr({1, 2, 0}));  // shorter is smaller
  EXPECT_EQ(addr({5, 5}), addr({5, 5}));
}

TEST(Address, CommonPrefixLength) {
  EXPECT_EQ(addr({1, 2, 3}).common_prefix_length(addr({1, 2, 4})), 2u);
  EXPECT_EQ(addr({1, 2, 3}).common_prefix_length(addr({1, 2, 3})), 3u);
  EXPECT_EQ(addr({1, 2, 3}).common_prefix_length(addr({9, 2, 3})), 0u);
}

TEST(Address, DistancePerPaper) {
  // Distance = d - (longest shared prefix length); 0 for equal addresses.
  const auto a = addr({1, 2, 3});
  EXPECT_EQ(a.distance(addr({1, 2, 3})), 0u);
  EXPECT_EQ(a.distance(addr({1, 2, 9})), 1u);
  EXPECT_EQ(a.distance(addr({1, 9, 9})), 2u);
  EXPECT_EQ(a.distance(addr({9, 9, 9})), 3u);
}

TEST(Address, DistanceRequiresSameDepth) {
  EXPECT_THROW(addr({1, 2}).distance(addr({1, 2, 3})), std::logic_error);
}

TEST(Address, PrefixExtraction) {
  const auto a = addr({1, 2, 3});
  EXPECT_EQ(a.prefix(0).length(), 0u);
  EXPECT_EQ(a.prefix(2).length(), 2u);
  EXPECT_EQ(a.prefix(2).component(1), 2);
  EXPECT_THROW(a.prefix(4), std::logic_error);
}

TEST(Prefix, ContainsAddress) {
  const auto p = addr({1, 2, 3}).prefix(2);
  EXPECT_TRUE(p.contains(addr({1, 2, 3})));
  EXPECT_TRUE(p.contains(addr({1, 2, 9})));
  EXPECT_FALSE(p.contains(addr({1, 3, 3})));
  EXPECT_TRUE(Prefix::root().contains(addr({9, 9})));
}

TEST(Prefix, ContainsPrefix) {
  const auto p1 = addr({1, 2, 3}).prefix(1);
  const auto p2 = addr({1, 2, 3}).prefix(2);
  EXPECT_TRUE(p1.contains(p2));
  EXPECT_FALSE(p2.contains(p1));
  EXPECT_TRUE(p2.contains(p2));
}

TEST(Prefix, ChildAndParent) {
  const auto root = Prefix::root();
  const auto c = root.child(5);
  EXPECT_EQ(c.length(), 1u);
  EXPECT_EQ(c.infix(), 5);
  EXPECT_EQ(c.parent(), root);
  EXPECT_THROW(root.parent(), std::logic_error);
  EXPECT_THROW(root.infix(), std::logic_error);
}

TEST(Prefix, ToString) {
  EXPECT_EQ(Prefix::root().to_string(), "<root>");
  EXPECT_EQ(addr({128, 178}).prefix(2).to_string(), "128.178");
}

TEST(AddressHash, UsableInUnorderedSet) {
  std::unordered_set<Address, AddressHash> set;
  set.insert(addr({1, 2, 3}));
  set.insert(addr({1, 2, 3}));
  set.insert(addr({1, 2, 4}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(PrefixHash, DistinguishesPrefixes) {
  PrefixHash h;
  EXPECT_NE(h(addr({1, 2}).prefix(1)), h(addr({2, 1}).prefix(1)));
}

}  // namespace
}  // namespace pmc
