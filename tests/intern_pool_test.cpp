#include "common/intern_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

namespace pmc {
namespace {

/// A value whose hash the test chooses, so distinct values can collide.
struct Keyed {
  int value = 0;
  std::uint64_t hash_value = 0;

  std::uint64_t hash() const noexcept { return hash_value; }
  friend bool operator==(const Keyed& a, const Keyed& b) {
    return a.value == b.value;
  }
};

/// A value equal to nothing, itself included: only identity can find it.
struct Unequal {
  std::uint64_t hash() const noexcept { return 7; }
  friend bool operator==(const Unequal&, const Unequal&) { return false; }
};

TEST(InternPool, DistinctValuesWithEqualHashesStayDistinct) {
  InternPool<Keyed> pool;
  std::vector<std::shared_ptr<const Keyed>> handles;
  for (int v = 0; v < 100; ++v) handles.push_back(pool.intern(Keyed{v, 42}));
  EXPECT_EQ(pool.size(), 100u);
  for (int v = 0; v < 100; ++v) {
    EXPECT_EQ(handles[v]->value, v);
    EXPECT_EQ(pool.intern(Keyed{v, 42}).get(), handles[v].get()) << v;
  }
  EXPECT_EQ(pool.size(), 100u);
}

TEST(InternPool, EqualValuesShareOneHandleAcrossGrowth) {
  // Thousands of values force the index to regrow many times; every
  // handle handed out before a regrowth must still be found after it.
  InternPool<Keyed> pool;
  std::vector<std::shared_ptr<const Keyed>> handles;
  // Only a few hash values, so long probe runs cross every regrowth.
  const auto keyed = [](int v) {
    return Keyed{v, static_cast<std::uint64_t>(v % 37)};
  };
  for (int v = 0; v < 5000; ++v) {
    handles.push_back(pool.intern(keyed(v)));
    ASSERT_EQ(pool.size(), static_cast<std::size_t>(v) + 1);
  }
  for (int v = 0; v < 5000; ++v) {
    const Keyed copy = keyed(v);
    EXPECT_EQ(pool.intern(copy).get(), handles[v].get()) << v;
    EXPECT_EQ(pool.intern(Keyed(copy)).get(), handles[v].get()) << v;
    EXPECT_EQ(pool.intern(handles[v]).get(), handles[v].get()) << v;
  }
  EXPECT_EQ(pool.size(), 5000u);
}

TEST(InternPool, APooledHandleIsFoundByIdentity) {
  InternPool<Unequal> pool;
  const auto first = pool.intern(Unequal{});
  const auto second = pool.intern(Unequal{});  // equal to nothing: a new one
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(pool.intern(first).get(), first.get());
  EXPECT_EQ(pool.intern(second).get(), second.get());
  EXPECT_EQ(pool.size(), 2u);

  // A handle from outside the pool becomes the pooled instance itself.
  const auto outside = std::make_shared<const Unequal>();
  EXPECT_EQ(pool.intern(outside).get(), outside.get());
  EXPECT_EQ(pool.intern(outside).get(), outside.get());
  EXPECT_EQ(pool.size(), 3u);
}

}  // namespace
}  // namespace pmc
