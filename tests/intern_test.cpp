#include "addr/intern.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "addr/space.hpp"
#include "common/rng.hpp"

namespace pmc {
namespace {

TEST(AddrIntern, RoundTripAndIdempotence) {
  AddrInternTable table;
  const Address a = Address::parse("1.2.3");
  const Address b = Address::parse("1.2.4");

  const AddrId ia = table.intern(a);
  const AddrId ib = table.intern(b);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(table.intern(a), ia);  // idempotent
  EXPECT_EQ(table.intern(b), ib);
  EXPECT_EQ(table.size(), 2u);

  EXPECT_EQ(table.resolve(ia), a);
  EXPECT_EQ(table.resolve(ib), b);
  EXPECT_EQ(table.find(a), ia);
  EXPECT_EQ(table.find(Address::parse("9.9.9")), kNoAddr);

  EXPECT_EQ(table.depth(ia), 3u);
  for (std::size_t i = 0; i < a.depth(); ++i)
    EXPECT_EQ(table.component(ia, i), a.component(i));
  const auto span = table.components(ib);
  ASSERT_EQ(span.size(), b.depth());
  for (std::size_t i = 0; i < b.depth(); ++i)
    EXPECT_EQ(span[i], b.component(i));
}

TEST(AddrIntern, CommonPrefixLengthMatchesComponentComparison) {
  AddrInternTable table;
  const AddrId x = table.intern(Address::parse("2.7.1"));
  const AddrId y = table.intern(Address::parse("2.7.5"));
  const AddrId z = table.intern(Address::parse("3.7.1"));

  // x and y share "2.7"; z shares nothing past the root with either.
  EXPECT_EQ(table.common_prefix_length(x, y), 2u);
  EXPECT_EQ(table.common_prefix_length(x, z), 0u);
  EXPECT_EQ(table.common_prefix_length(x, x), 3u);
}

TEST(AddrIntern, RandomizedEquivalenceWithAddressMath) {
  // The interned prefix/distance/order math must agree with the
  // component-vector implementation on every pair — the SoA refactor rides
  // on this equivalence.
  AddrInternTable table;
  const auto space = AddressSpace::regular(5, 3);
  const auto all = space.enumerate();

  Rng rng(0xdecaf);
  std::vector<Address> picked;
  std::vector<AddrId> ids;
  for (std::size_t k = 0; k < 60; ++k) {
    const auto& a = all[rng.next_below(all.size())];
    picked.push_back(a);
    ids.push_back(table.intern(a));
  }

  for (std::size_t i = 0; i < picked.size(); ++i) {
    for (std::size_t j = 0; j < picked.size(); ++j) {
      EXPECT_EQ(table.common_prefix_length(ids[i], ids[j]),
                picked[i].common_prefix_length(picked[j]));
      EXPECT_EQ(table.distance(ids[i], ids[j]),
                picked[i].distance(picked[j]));
      EXPECT_EQ(table.less(ids[i], ids[j]), picked[i] < picked[j]);
      EXPECT_EQ(ids[i] == ids[j], picked[i] == picked[j]);
    }
  }
}

TEST(AddrIntern, SortingByLessMatchesAddressOrderDespiteInternOrder) {
  // Ids are assigned in first-intern order, so ranking by raw id would be
  // wrong; less() must recover lexicographic address order.
  AddrInternTable table;
  std::vector<Address> addrs;
  for (const char* t : {"3.1", "1.2", "2.9", "1.1", "2.0"})
    addrs.push_back(Address::parse(t));
  std::vector<AddrId> ids;
  for (const auto& a : addrs) ids.push_back(table.intern(a));

  std::sort(ids.begin(), ids.end(),
            [&](AddrId a, AddrId b) { return table.less(a, b); });
  std::sort(addrs.begin(), addrs.end());
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(table.resolve(ids[i]), addrs[i]);
}

TEST(AddrIntern, ReserveDoesNotDisturbIds) {
  AddrInternTable table;
  table.reserve(64, 3);
  const AddrId a = table.intern(Address::parse("0.0.0"));
  const AddrId b = table.intern(Address::parse("0.0.1"));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(table.find(Address::parse("0.0.0")), a);
}

TEST(AddrIntern, FindAgreesWithInternAcrossManyGrowths) {
  // No reserve: the trie's index regrows many times along the way. Every
  // id is checked right after it is handed out and again at the end, so a
  // regrowth that loses or moves an entry shows.
  AddrInternTable table;
  const auto every = AddressSpace::regular(24, 3).enumerate();
  std::vector<std::size_t> order(every.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(0x1d5);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  order.resize(order.size() / 2);  // the other half is never interned

  std::vector<AddrId> ids;
  std::vector<bool> interned(every.size(), false);
  for (const std::size_t k : order) {
    const AddrId id = table.intern(every[k]);
    ASSERT_EQ(id, ids.size());  // first-intern order
    ASSERT_EQ(table.find(every[k]), id);
    ids.push_back(id);
    interned[k] = true;
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(table.find(every[order[i]]), ids[i]);
    EXPECT_EQ(table.intern(every[order[i]]), ids[i]);
    EXPECT_EQ(table.resolve(ids[i]), every[order[i]]);
  }
  for (std::size_t k = 0; k < every.size(); ++k) {
    if (interned[k]) continue;
    EXPECT_EQ(table.find(every[k]), kNoAddr) << k;
  }
  // A prefix of interned addresses is a trie node but no address.
  EXPECT_EQ(table.find(every[order[0]].prefix(2).components()), kNoAddr);
  EXPECT_EQ(table.find(Address::parse("24.0.0")), kNoAddr);
  EXPECT_EQ(table.size(), order.size());
}

}  // namespace
}  // namespace pmc
