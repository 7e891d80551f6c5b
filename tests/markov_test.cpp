#include "analysis/markov.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "harness/experiment.hpp"

namespace pmc {
namespace {

TEST(LogBinomial, KnownValues) {
  EXPECT_NEAR(std::exp(log_binomial(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial(10, 10)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial(52, 5)), 2598960.0, 1e-3);
}

TEST(LogBinomial, OutOfRangeRejected) {
  EXPECT_THROW(log_binomial(5, 6), std::logic_error);
  EXPECT_THROW(log_binomial(5, -1), std::logic_error);
}

TEST(InfectionChain, TransitionRowsSumToOne) {
  const InfectionChain chain(20, 0.15);
  for (std::size_t j = 0; j <= 20; ++j) {
    double sum = 0;
    for (std::size_t k = 0; k <= 20; ++k) sum += chain.transition(j, k);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "from state " << j;
  }
}

TEST(InfectionChain, NoShrinking) {
  const InfectionChain chain(10, 0.3);
  for (std::size_t j = 0; j <= 10; ++j)
    for (std::size_t k = 0; k < j; ++k)
      EXPECT_DOUBLE_EQ(chain.transition(j, k), 0.0);
}

TEST(InfectionChain, ZeroStateAbsorbing) {
  const InfectionChain chain(10, 0.3);
  EXPECT_DOUBLE_EQ(chain.transition(0, 0), 1.0);
}

TEST(InfectionChain, FullInfectionAbsorbing) {
  const InfectionChain chain(10, 0.3);
  EXPECT_DOUBLE_EQ(chain.transition(10, 10), 1.0);
}

TEST(InfectionChain, PZeroFreezes) {
  const InfectionChain chain(10, 0.0);
  EXPECT_DOUBLE_EQ(chain.transition(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(chain.expected_infected(5, 3), 3.0);
}

TEST(InfectionChain, POneInfectsAllInOneRound) {
  const InfectionChain chain(10, 1.0);
  EXPECT_DOUBLE_EQ(chain.transition(1, 10), 1.0);
  EXPECT_DOUBLE_EQ(chain.expected_infected(1, 1), 10.0);
}

TEST(InfectionChain, DistributionNormalized) {
  const InfectionChain chain(30, 0.1);
  for (std::size_t rounds : {0u, 1u, 5u, 15u}) {
    const auto dist = chain.distribution_after(rounds, 1);
    const double total = std::accumulate(dist.begin(), dist.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9) << rounds << " rounds";
  }
}

TEST(InfectionChain, ZeroRoundsIsInitialState) {
  const InfectionChain chain(10, 0.2);
  const auto dist = chain.distribution_after(0, 3);
  EXPECT_DOUBLE_EQ(dist[3], 1.0);
  EXPECT_DOUBLE_EQ(chain.expected_infected(0, 3), 3.0);
}

TEST(InfectionChain, ExpectedInfectedMonotoneInRounds) {
  const InfectionChain chain(50, 0.05);
  double prev = 1.0;
  for (std::size_t t = 1; t <= 12; ++t) {
    const double cur = chain.expected_infected(t, 1);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

TEST(InfectionChain, ConvergesToFullInfection) {
  const InfectionChain chain(25, 0.2);
  EXPECT_NEAR(chain.expected_infected(40, 1), 25.0, 0.01);
}

TEST(InfectionChain, MatchesTwoProcessClosedForm) {
  // n=2: from 1 infected, P[2 infected after 1 round] = p.
  const InfectionChain chain(2, 0.35);
  EXPECT_NEAR(chain.transition(1, 2), 0.35, 1e-12);
  EXPECT_NEAR(chain.transition(1, 1), 0.65, 1e-12);
  EXPECT_NEAR(chain.expected_infected(1, 1), 1.35, 1e-12);
}

TEST(InfectionChain, MatchesThreeProcessClosedForm) {
  // n=3, j=1: each of the other 2 infected independently w.p. p.
  const double p = 0.25;
  const InfectionChain chain(3, p);
  EXPECT_NEAR(chain.transition(1, 1), (1 - p) * (1 - p), 1e-12);
  EXPECT_NEAR(chain.transition(1, 2), 2 * p * (1 - p), 1e-12);
  EXPECT_NEAR(chain.transition(1, 3), p * p, 1e-12);
}

TEST(InfectionChain, FlatFactoryMatchesEq8) {
  // p = F/(n-1) * (1-eps)(1-tau).
  EnvParams env;
  env.loss = 0.05;
  env.crash = 0.01;
  const auto chain = InfectionChain::flat(101, 2.0, env);
  // One infected process stays alone with probability (1 - p)^(n-1).
  const double p = (2.0 / 100.0) * 0.95 * 0.99;
  EXPECT_NEAR(chain.transition(1, 1), std::pow(1.0 - p, 100.0), 1e-12);
}

TEST(InfectionChain, FlatFanoutBeyondGroupClamped) {
  const auto chain = InfectionChain::flat(3, 10.0);
  // p = 1: one round infects everyone.
  EXPECT_DOUBLE_EQ(chain.transition(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(chain.transition(1, 3), 1.0);
}

TEST(InfectionChain, SingletonGroup) {
  const auto chain = InfectionChain::flat(1, 2.0);
  EXPECT_DOUBLE_EQ(chain.expected_infected(5, 1), 1.0);
}

TEST(InfectionChain, InvalidArgumentsRejected) {
  EXPECT_THROW(InfectionChain(0, 0.5), std::logic_error);
  EXPECT_THROW(InfectionChain(5, 1.5), std::logic_error);
  EXPECT_THROW(InfectionChain(5, -0.1), std::logic_error);
  const InfectionChain chain(5, 0.5);
  EXPECT_THROW(chain.distribution_after(1, 6), std::logic_error);
}

TEST(InfectionChain, LargeChainNumericallyStable) {
  const InfectionChain chain(300, 0.01);
  const auto dist = chain.distribution_after(10, 1);
  double total = 0;
  for (const auto p : dist) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0 + 1e-12);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-8);
}

// --- Monte-Carlo cross-validation of the Sec. 4.2 chain --------------------

TEST(ModelValidation, FlatGossipMatchesMarkovChain) {
  // Simulate flat-group gossip (d=1) many times; the mean infected count
  // after the full run must sit near the chain's prediction at the round
  // the algorithm stops (ceil of Pittel's bound).
  const std::size_t n = 40;
  const double fanout = 3.0;
  const double loss = 0.1;

  Accumulator simulated;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    ExperimentConfig c;
    c.a = n;
    c.d = 1;
    c.r = 1;
    c.fanout = 3;
    c.pd = 1.0;
    c.loss = loss;
    c.runs = 1;
    c.seed = 900 + seed;
    const auto r = run_pmcast_experiment(c);
    simulated.add(r.delivery.mean());
  }

  EnvParams env;
  env.loss = loss;
  const RoundEstimator estimator;
  const auto rounds = RoundEstimator::executed_rounds(
      estimator.faulty(n, fanout, env));
  const auto chain = InfectionChain::flat(n, fanout, env);
  const double predicted =
      chain.expected_infected(rounds) / static_cast<double>(n);

  EXPECT_NEAR(simulated.mean(), predicted, 0.08);
}

}  // namespace
}  // namespace pmc
