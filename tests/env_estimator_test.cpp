// Online ε/τ estimation: EWMA convergence and tracking at the unit level,
// the bound-collapse guard at the node level, and determinism of adaptive
// scenario runs (same seed + script ⇒ byte-identical summaries, estimator
// state included).
#include "analysis/env_estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cluster_helpers.hpp"
#include "harness/scenario.hpp"

namespace pmc {
namespace {

using testing::default_config;
using testing::make_cluster;

/// A prior with loss `loss` and no crashes.
EnvParams prior(double loss = 0.0) { return EnvParams{loss, 0.0}; }

/// Acks surviving a round trip at loss ε: probes * (1-ε)².
std::uint64_t acks_at(std::uint64_t probes, double eps) {
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(probes) * (1.0 - eps) * (1.0 - eps)));
}

TEST(EnvEstimator, ConvergesUnderConstantLoss) {
  EnvEstimator est(prior(/*loss=*/0.0), 0.5);
  for (int w = 0; w < 40; ++w) est.observe_feedback(200, acks_at(200, 0.3));
  EXPECT_NEAR(est.estimate().loss, 0.3, 0.02);
  EXPECT_EQ(est.feedback_windows(), 40u);
}

TEST(EnvEstimator, TracksAcrossLossBurstEdge) {
  // Calm -> burst -> calm: the estimate must climb within a few windows of
  // the edge and decay back after it.
  EnvEstimator est(prior(0.02), 0.5);
  for (int w = 0; w < 20; ++w) est.observe_feedback(100, acks_at(100, 0.02));
  const double calm = est.estimate().loss;
  EXPECT_NEAR(calm, 0.02, 0.02);

  for (int w = 0; w < 6; ++w) est.observe_feedback(100, acks_at(100, 0.45));
  const double burst = est.estimate().loss;
  EXPECT_GT(burst, 0.35);  // 1 - 0.5^6 of the way to 0.45

  for (int w = 0; w < 20; ++w) est.observe_feedback(100, acks_at(100, 0.02));
  EXPECT_LT(est.estimate().loss, 0.05);
}

TEST(EnvEstimator, IgnoresWindowsBelowMinProbes) {
  EnvEstimator est(prior(0.1), 0.5);
  est.observe_feedback(2, 0);  // min_probes is 4: pure noise, discarded
  EXPECT_DOUBLE_EQ(est.estimate().loss, 0.1);
  EXPECT_EQ(est.feedback_windows(), 0u);
}

TEST(EnvEstimator, AckSurplusClampsToZeroLossObservation) {
  // Acks answering the previous window's probes can exceed this window's
  // sends; the ratio clamps to 1 (an observed loss of 0), never negative.
  EnvEstimator est(prior(0.5), 0.5);
  for (int w = 0; w < 50; ++w) est.observe_feedback(10, 14);
  EXPECT_NEAR(est.estimate().loss, 0.0, 1e-9);
}

TEST(EnvEstimator, SaturatedLossStaysAValidFaultyInput) {
  // Total blackout: the estimate saturates at the 0.9 ceiling, so the
  // round bound collapses to 0 without tripping faulty()'s contract.
  EnvEstimator est(prior(0.05), 0.5);
  for (int w = 0; w < 100; ++w) est.observe_feedback(50, 0);
  const EnvParams env = est.estimate();
  EXPECT_DOUBLE_EQ(env.loss, 0.9);
  const RoundEstimator rounds;
  EXPECT_NO_THROW(rounds.faulty(100, 3, env));
}

TEST(EnvEstimator, ChurnWindowsDriveCrashEstimate) {
  EnvEstimator est(prior(), 0.5);
  for (int w = 0; w < 30; ++w) est.observe_churn(2, 20);  // 10% per window
  EXPECT_NEAR(est.estimate().crash, 0.1, 0.01);
  est.observe_churn(5, 0);  // empty population: ignored
  EXPECT_EQ(est.churn_windows(), 30u);
}

TEST(EnvEstimator, RejectsNonsensePolicies) {
  EXPECT_THROW(EnvEstimator(prior(), 0.0), std::logic_error);
  EXPECT_THROW(EnvEstimator(prior(1.0), 0.5), std::logic_error);
}

// --- Bound collapse at the node level --------------------------------------

TEST(BoundCollapse, CountedWhenDiscountedPopulationVanishes) {
  // A harsh (but legal) environment estimate: keep = 0.01 discounts every
  // audience below 1, so the Eq. 11 bound is 0 at every depth and events
  // retire after zero rounds. Pre-fix this was silent delivery loss; now
  // each skipped depth is counted.
  PmcastConfig config = default_config();
  config.env.loss = 0.9;
  config.env.crash = 0.9;
  auto c = make_cluster(4, 2, 2, /*pd=*/1.0, config, 0.0, 11);
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  EXPECT_GT(c.nodes[0]->gossip_stats().bound_collapsed, 0u);
  EXPECT_EQ(c.nodes[0]->gossip_stats().rounds_run, 0u);
  // Nobody else could have been reached: the event died at the publisher.
  for (const auto& n : c.nodes) {
    if (n->id() == 0) continue;
    EXPECT_FALSE(n->has_received(e.id()));
  }
}

TEST(BoundCollapse, NotCountedInHealthyEnvironments) {
  auto c = make_cluster(4, 2, 2, /*pd=*/1.0, default_config(), 0.0, 12);
  c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  c.runtime->run_until_idle();
  std::uint64_t collapsed = 0;
  for (const auto& n : c.nodes) collapsed += n->gossip_stats().bound_collapsed;
  EXPECT_EQ(collapsed, 0u);
}

// --- no_regossip semantics ---------------------------------------------------

TEST(NoRegossip, FloodReceiversDeliverWithoutGossiping) {
  // Depth-1 tree: the whole group is one leaf subgroup, so a dense publish
  // floods once. Receivers must deliver yet never re-gossip (the explicit
  // GossipMsg::no_regossip flag) — exactly one message per interested
  // neighbor in the entire run, and zero probabilistic rounds anywhere.
  PmcastConfig config = default_config();
  config.leaf_flood_density = 0.9;
  auto c = make_cluster(6, 1, 1, /*pd=*/1.0, config, 0.0, 13);
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  std::uint64_t gossips = 0, rounds = 0;
  std::size_t delivered = 0;
  for (const auto& n : c.nodes) {
    gossips += n->stats().sent;
    rounds += n->gossip_stats().rounds_run;
    if (n->has_delivered(e.id())) ++delivered;
  }
  EXPECT_EQ(delivered, c.nodes.size());
  EXPECT_EQ(gossips, c.nodes.size() - 1);  // one flood send per neighbor
  EXPECT_EQ(rounds, 0u);
}

// --- Adaptive scenario runs ---------------------------------------------------

ChurnConfig adaptive_config() {
  ChurnConfig config;
  config.a = 4;
  config.d = 2;
  config.r = 2;
  config.loss = 0.02;
  config.seed = 99;
  config.adaptive = true;
  return config;
}

ScenarioScript bursty_script() {
  ScenarioScript s;
  s.add(sim_ms(300), LossBurst{0.45, sim_ms(1500)});
  s.add(sim_ms(1200), PublishBurst{6, sim_ms(30)});
  return s;
}

TEST(AdaptiveChurn, SameSeedByteIdenticalSummaries) {
  const auto run = [] {
    ChurnSim sim(adaptive_config());
    sim.play(bursty_script());
    sim.run_until(sim_ms(2500));
    return sim.summary();
  };
  const ChurnSummary first = run();
  const ChurnSummary second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.env_windows, 0u);
}

TEST(AdaptiveChurn, EstimateTracksTheLossBurst) {
  // Mid-burst the live mean ε̂ must sit far above the 0.02 base rate; a
  // calm twin stays near it. (ppm fields: 1e6 = certainty.)
  ChurnSim burst(adaptive_config());
  burst.play(bursty_script());
  burst.run_until(sim_ms(1700));  // still inside the burst
  const auto hot = burst.group_summary();
  EXPECT_GT(hot.env_loss_ppm, 200000u);  // ε̂ > 0.2 under ε = 0.45

  ChurnSim calm(adaptive_config());
  calm.run_until(sim_ms(1700));
  const auto cool = calm.group_summary();
  EXPECT_LT(cool.env_loss_ppm, 100000u);  // ε̂ < 0.1 at ε = 0.02
}

TEST(AdaptiveChurn, StaticRunsCarryNoEstimatorState) {
  ChurnConfig config = adaptive_config();
  config.adaptive = false;
  ChurnSim sim(config);
  sim.play(bursty_script());
  sim.run_until(sim_ms(2000));
  const auto summary = sim.group_summary();
  EXPECT_EQ(summary.env_windows, 0u);
  EXPECT_EQ(summary.env_loss_ppm, 0u);
  EXPECT_EQ(summary.env_crash_ppm, 0u);
}

}  // namespace
}  // namespace pmc
