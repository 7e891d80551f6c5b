#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pmc {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.stderr_mean(), 0.0);
}

TEST(Accumulator, SingleSample) {
  Accumulator a;
  a.add(4.5);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.5);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 4.5);
  EXPECT_DOUBLE_EQ(a.max(), 4.5);
}

TEST(Accumulator, MeanAndVarianceMatchClosedForm) {
  Accumulator a;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  // Sample variance of the classic data set: 32/7.
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(a.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Accumulator, MinMaxTracked) {
  Accumulator a;
  a.add(3.0);
  a.add(-1.0);
  a.add(10.0);
  EXPECT_DOUBLE_EQ(a.min(), -1.0);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
}

TEST(Accumulator, Ci95ShrinksWithSamples) {
  Accumulator small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 2);
  for (int i = 0; i < 1000; ++i) large.add(i % 2);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

}  // namespace
}  // namespace pmc
