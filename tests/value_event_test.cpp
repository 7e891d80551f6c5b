#include <gtest/gtest.h>

#include "event/event.hpp"
#include "event/value.hpp"

namespace pmc {
namespace {

TEST(Value, Kinds) {
  EXPECT_EQ(Value(1).kind(), ValueKind::Int);
  EXPECT_EQ(Value(std::int64_t{5}).kind(), ValueKind::Int);
  EXPECT_EQ(Value(2.5).kind(), ValueKind::Float);
  EXPECT_EQ(Value("hi").kind(), ValueKind::String);
  EXPECT_EQ(Value(std::string("hi")).kind(), ValueKind::String);
}

TEST(Value, DefaultIsIntZero) {
  Value v;
  EXPECT_EQ(v.kind(), ValueKind::Int);
  EXPECT_EQ(v.as_int(), 0);
}

TEST(Value, NumericCrossKindEquality) {
  EXPECT_EQ(Value(2), Value(2.0));
  EXPECT_NE(Value(2), Value(2.5));
  EXPECT_NE(Value(2), Value("2"));
}

TEST(Value, StringEquality) {
  EXPECT_EQ(Value("Bob"), Value(std::string("Bob")));
  EXPECT_NE(Value("Bob"), Value("Tom"));
}

TEST(Value, AsDoubleFromInt) {
  EXPECT_DOUBLE_EQ(Value(7).as_double(), 7.0);
  EXPECT_DOUBLE_EQ(Value(7.25).as_double(), 7.25);
}

TEST(Value, WrongKindAccessThrows) {
  EXPECT_THROW(Value("x").as_double(), std::logic_error);
  EXPECT_THROW(Value(1.5).as_int(), std::logic_error);
  EXPECT_THROW(Value(3).as_string(), std::logic_error);
}

TEST(Value, ToString) {
  EXPECT_EQ(Value(42).to_string(), "42");
  EXPECT_EQ(Value("Bob").to_string(), "\"Bob\"");
}

TEST(Event, SetAndGet) {
  Event e;
  e.with("b", 2).with("c", 41.5).with("e", "Bob");
  ASSERT_TRUE(e.get("b").has_value());
  EXPECT_EQ(e.get("b")->as_int(), 2);
  EXPECT_DOUBLE_EQ(e.get("c")->as_double(), 41.5);
  EXPECT_EQ(e.get("e")->as_string(), "Bob");
  EXPECT_FALSE(e.get("missing").has_value());
}

TEST(Event, WithReplacesExisting) {
  Event e;
  e.with("b", 1).with("b", 2);
  EXPECT_EQ(e.size(), 1u);
  EXPECT_EQ(e.get("b")->as_int(), 2);
}

TEST(Event, AttributesSortedByName) {
  Event e;
  e.with("z", 1).with("a", 2).with("m", 3);
  const auto& attrs = e.attributes();
  ASSERT_EQ(attrs.size(), 3u);
  EXPECT_EQ(attrs[0].name, "a");
  EXPECT_EQ(attrs[1].name, "m");
  EXPECT_EQ(attrs[2].name, "z");
}

TEST(Event, IdRoundTrip) {
  Event e(EventId{7, 9});
  EXPECT_EQ(e.id().publisher, 7u);
  EXPECT_EQ(e.id().sequence, 9u);
}

TEST(EventId, OrderingAndEquality) {
  EXPECT_EQ((EventId{1, 2}), (EventId{1, 2}));
  EXPECT_LT((EventId{1, 2}), (EventId{1, 3}));
  EXPECT_LT((EventId{1, 9}), (EventId{2, 0}));
}

TEST(EventIdHash, DistinctIdsRarelyCollide) {
  EventIdHash h;
  std::size_t a = h(EventId{1, 1});
  std::size_t b = h(EventId{1, 2});
  std::size_t c = h(EventId{2, 1});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(Event, ToStringListsAttributes) {
  Event e;
  e.with("b", 2).with("e", "x");
  EXPECT_EQ(e.to_string(), "{b=2, e=\"x\"}");
}

TEST(Event, EmptyEvent) {
  Event e;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.to_string(), "{}");
}

}  // namespace
}  // namespace pmc
