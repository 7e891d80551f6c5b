#include "analysis/rounds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace pmc {
namespace {

TEST(RoundEstimator, MatchesPittelClosedForm) {
  const RoundEstimator est(0.0);
  const double n = 10000, f = 2;
  const double expected =
      std::log(n) * (1.0 / f + 1.0 / std::log(f + 1.0));
  EXPECT_NEAR(est.pittel(n, f), expected, 1e-12);
}

TEST(RoundEstimator, ZeroForDegenerateGroups) {
  const RoundEstimator est;
  EXPECT_DOUBLE_EQ(est.pittel(1.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(est.pittel(0.5, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(est.pittel(0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(est.pittel(100.0, 0.0), 0.0);
}

TEST(RoundEstimator, MonotoneInGroupSize) {
  const RoundEstimator est;
  EXPECT_LT(est.pittel(100, 3), est.pittel(1000, 3));
  EXPECT_LT(est.pittel(1000, 3), est.pittel(10000, 3));
}

TEST(RoundEstimator, DecreasingInFanout) {
  const RoundEstimator est;
  EXPECT_GT(est.pittel(10000, 1), est.pittel(10000, 2));
  EXPECT_GT(est.pittel(10000, 2), est.pittel(10000, 4));
}

TEST(RoundEstimator, ConstantShifts) {
  const RoundEstimator base(0.0), shifted(2.5);
  EXPECT_NEAR(shifted.pittel(1000, 2) - base.pittel(1000, 2), 2.5, 1e-12);
}

TEST(RoundEstimator, NegativeTotalClampedToZero) {
  const RoundEstimator est(-100.0);
  EXPECT_DOUBLE_EQ(est.pittel(10, 2), 0.0);
}

TEST(RoundEstimator, FaultyDiscountsPopulationAndFanout) {
  const RoundEstimator est;
  EnvParams env;
  env.loss = 0.2;
  env.crash = 0.1;
  const double keep = 0.8 * 0.9;
  EXPECT_NEAR(est.faulty(1000, 3, env),
              est.pittel(1000 * keep, 3 * keep), 1e-12);
}

TEST(RoundEstimator, FaultyNoFaultsEqualsPittel) {
  const RoundEstimator est;
  EXPECT_DOUBLE_EQ(est.faulty(500, 2, EnvParams{}), est.pittel(500, 2));
}

TEST(RoundEstimator, FaultyMoreLossMoreRounds) {
  // More loss shrinks the effective fanout, so the bound cannot shrink
  // whenever the effective population is still > 1... but Eq. 11 also
  // shrinks n. The paper's net effect at realistic sizes: more rounds.
  const RoundEstimator est;
  EnvParams lossy;
  lossy.loss = 0.3;
  EXPECT_GT(est.faulty(10000, 2, lossy), est.faulty(10000, 2, EnvParams{}));
}

TEST(RoundEstimator, InvalidEnvRejected) {
  const RoundEstimator est;
  EnvParams bad;
  bad.loss = 1.5;  // beyond the [0, 1] parameter space
  EXPECT_THROW(est.faulty(10, 2, bad), std::logic_error);
  EnvParams bad2;
  bad2.crash = -0.1;
  EXPECT_THROW(est.faulty(10, 2, bad2), std::logic_error);
  EnvParams bad3;
  bad3.loss = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(est.faulty(10, 2, bad3), std::logic_error);
}

TEST(RoundEstimator, SaturatedEnvCollapsesToZeroInsteadOfThrowing) {
  // ε = 1 (or τ = 1) is a state an online estimator can legitimately
  // reach under total loss; the pre-fix estimator rejected the boundary
  // (loss < 1) and threw mid-gossip. Now the bound collapses to an
  // explicit 0 — observable via PmcastNode::GossipStats::bound_collapsed.
  const RoundEstimator est;
  EnvParams total_loss;
  total_loss.loss = 1.0;
  EXPECT_DOUBLE_EQ(est.faulty(1000, 3, total_loss), 0.0);
  EnvParams total_crash;
  total_crash.crash = 1.0;
  EXPECT_DOUBLE_EQ(est.faulty(1000, 3, total_crash), 0.0);
}

TEST(RoundEstimator, CollapsedDiscountsYieldZeroNotNaN) {
  const RoundEstimator est;
  // Discounted population <= 1: zero rounds, explicitly.
  EnvParams harsh;
  harsh.loss = 0.9;
  harsh.crash = 0.9;  // keep = 0.01: n = 50 -> 0.5, F = 2 -> 0.02
  EXPECT_DOUBLE_EQ(est.faulty(50, 2, harsh), 0.0);
  // NaN inputs (a poisoned upstream discount) also collapse to 0 instead
  // of propagating through log().
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(est.pittel(nan, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(est.pittel(100.0, nan), 0.0);
}

TEST(RoundEstimator, FaultyMatchesHandComputedEq11) {
  // Locks the double-discount semantics of the Fig. 3 line 7 call site
  // (src/pmcast/node.cpp): the matching rate scales both arguments first
  // (n = |view| * rate interested processes, F * rate expected interested
  // draws), then Eq. 11 multiplies both by (1-ε)(1-τ). For a view of 20,
  // rate 0.5, F = 3, ε = 0.2, τ = 0.1:
  //   n' = 20 * 0.5 * 0.72 = 7.2,  F' = 3 * 0.5 * 0.72 = 1.08
  //   T  = ln(7.2) * (1/1.08 + 1/ln(2.08)) = 4.52333009268176...
  const RoundEstimator est;
  EnvParams env;
  env.loss = 0.2;
  env.crash = 0.1;
  const double interested = 20 * 0.5;
  const double effective_fanout = 3 * 0.5;
  EXPECT_NEAR(est.faulty(interested, effective_fanout, env),
              4.5233300926817614, 1e-12);
  // The algorithm then gossips for ceil(T) = 5 rounds at this depth.
  EXPECT_EQ(RoundEstimator::executed_rounds(
                est.faulty(interested, effective_fanout, env)),
            5u);
}

TEST(RoundEstimator, ExecutedRoundsCeil) {
  EXPECT_EQ(RoundEstimator::executed_rounds(0.0), 0u);
  EXPECT_EQ(RoundEstimator::executed_rounds(-1.0), 0u);
  EXPECT_EQ(RoundEstimator::executed_rounds(0.1), 1u);
  EXPECT_EQ(RoundEstimator::executed_rounds(3.0), 3u);
  EXPECT_EQ(RoundEstimator::executed_rounds(3.2), 4u);
}

TEST(RoundEstimator, SmallPopulationAnomalyReproduced) {
  // Sec. 5.1: towards n*pd -> 1 the estimate collapses to 0, which is the
  // root cause of the small-matching-rate reliability loss.
  const RoundEstimator est;
  EXPECT_GT(est.pittel(50, 2), est.pittel(2, 2));
  EXPECT_GT(est.pittel(2, 2), est.pittel(1, 2));
  EXPECT_DOUBLE_EQ(est.pittel(1, 2), 0.0);
}

}  // namespace
}  // namespace pmc
