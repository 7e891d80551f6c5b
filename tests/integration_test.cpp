// End-to-end integration tests: full pmcast clusters under loss and crash,
// combined membership + dissemination stacks, and analysis-vs-simulation
// cross-checks on mid-sized trees.
#include <gtest/gtest.h>

#include "analysis/tree_analysis.hpp"
#include "cluster_helpers.hpp"
#include "harness/experiment.hpp"
#include "membership/sync.hpp"

namespace pmc {
namespace {

using testing::default_config;
using testing::make_cluster;

TEST(Integration, MidSizeTreeUnderLossStillReliable) {
  // 216 processes, 10% loss: delivery should stay high for pd = 0.5.
  PmcastConfig config = default_config();
  config.env.loss = 0.10;
  auto c = make_cluster(6, 3, 3, 0.5, config, /*loss=*/0.10, /*seed=*/1);
  const Event e = make_event_at(0, 0, 0.37);
  c.nodes[100]->pmcast(e);
  c.runtime->run_until_idle();
  std::size_t interested = 0, delivered = 0;
  for (const auto& n : c.nodes) {
    if (!n->interested_in(e)) continue;
    ++interested;
    if (n->has_delivered(e.id())) ++delivered;
  }
  ASSERT_GT(interested, 50u);
  EXPECT_GE(static_cast<double>(delivered) / static_cast<double>(interested),
            0.85);
}

TEST(Integration, CrashesDuringDisseminationTolerated) {
  PmcastConfig config = default_config();
  auto c = make_cluster(6, 3, 3, 0.6, config, 0.05, /*seed=*/2);
  // Crash 5% of processes over the first 2 seconds.
  std::vector<Process*> victims;
  Rng rng(3);
  for (const auto v : rng.sample_without_replacement(c.nodes.size(), 10))
    victims.push_back(c.nodes[v].get());
  c.runtime->schedule_crashes(victims, sim_ms(2000));
  const Event e = make_event_at(0, 0, 0.8);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  std::size_t interested = 0, delivered = 0;
  for (const auto& n : c.nodes) {
    if (!n->alive() || !n->interested_in(e)) continue;
    ++interested;
    if (n->has_delivered(e.id())) ++delivered;
  }
  EXPECT_GE(static_cast<double>(delivered) / static_cast<double>(interested),
            0.8);
}

TEST(Integration, SimulationTracksAnalysisForModeratePd) {
  // The Sec. 4 analysis and the simulator must agree on the shape: high
  // reliability at pd = 0.6 on a 125-process tree.
  ExperimentConfig c;
  c.a = 5;
  c.d = 3;
  c.r = 3;
  c.fanout = 3;
  c.pd = 0.6;
  c.loss = 0.05;
  c.runs = 15;
  c.seed = 5;
  const auto sim = run_pmcast_experiment(c);
  const auto ana = analyze_tree(c.analysis_params());
  EXPECT_GT(sim.delivery.mean(), 0.75);
  EXPECT_GT(ana.reliability, 0.75);
  EXPECT_NEAR(sim.delivery.mean(), ana.reliability, 0.25);
}

TEST(Integration, SmallPdLosesReliabilityInBothWorlds) {
  // The paper's Fig. 4 left edge: both analysis and simulation degrade.
  ExperimentConfig mid;
  mid.a = 6;
  mid.d = 3;
  mid.r = 3;
  mid.fanout = 2;
  mid.loss = 0.05;
  mid.runs = 15;
  mid.seed = 6;
  auto low = mid;
  mid.pd = 0.6;
  low.pd = 0.02;
  const auto sim_mid = run_pmcast_experiment(mid);
  const auto sim_low = run_pmcast_experiment(low);
  EXPECT_GT(sim_mid.delivery.mean(), sim_low.delivery.mean());
  const auto ana_mid = analyze_tree(mid.analysis_params());
  const auto ana_low = analyze_tree(low.analysis_params());
  EXPECT_GT(ana_mid.reliability, ana_low.reliability);
}

TEST(Integration, TuningRecoversSmallPdReliability) {
  // Fig. 7: the h-tuned variant dominates at small matching rates.
  ExperimentConfig base;
  base.a = 8;
  base.d = 2;
  base.r = 3;
  base.fanout = 3;
  base.pd = 0.06;
  base.loss = 0.0;
  base.runs = 30;
  base.seed = 7;
  auto tuned = base;
  tuned.tuning_threshold = 8;
  const auto untuned_result = run_pmcast_experiment(base);
  const auto tuned_result = run_pmcast_experiment(tuned);
  EXPECT_GE(tuned_result.delivery.mean(),
            untuned_result.delivery.mean() - 0.02);
  // And the cost: more uninterested receptions.
  EXPECT_GE(tuned_result.false_reception.mean(),
            untuned_result.false_reception.mean());
}

TEST(Integration, MembershipAndDisseminationComposed) {
  // SyncNodes converge membership; pmcast nodes then disseminate over the
  // materialized views — the full deployment stack in one simulation.
  const auto space = AddressSpace::regular(3, 2);
  Rng rng(8);
  const auto members = uniform_interest_members(space, 1.0, rng);
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 2;
  Interns interns;
  const GroupTree tree(tc, members, interns);

  Runtime rt(NetworkConfig{}, 9);
  // Interleave ids: sync node i <-> pmcast node i + 100.
  const auto dir = testing::pid_table(interns, members);

  SyncConfig sc;
  sc.tree = tc;
  sc.gossip_period = sim_ms(50);
  std::vector<std::unique_ptr<SyncNode>> sync_nodes;
  for (std::size_t i = 0; i < members.size(); ++i) {
    sync_nodes.push_back(std::make_unique<SyncNode>(
        rt, static_cast<ProcessId>(i), sc,
        tree.materialize_view(members[i].address), members[i].subscription,
        testing::lookup(dir)));
  }
  rt.run_for(sim_ms(300));  // let membership settle

  const auto pm_dir = testing::pid_table(interns, members, 100);
  PmcastConfig pc = default_config();
  pc.tree = tc;
  std::vector<std::unique_ptr<PmcastNode>> pm_nodes;
  for (std::size_t i = 0; i < members.size(); ++i) {
    pm_nodes.push_back(std::make_unique<PmcastNode>(
        rt, static_cast<ProcessId>(i + 100), pc, members[i].address,
        members[i].subscription,
        sync_nodes[i]->view().tables_for(members[i].address),
        testing::lookup(pm_dir)));
  }
  const Event e = make_event_at(0, 0, 0.5);
  pm_nodes[0]->pmcast(e);
  rt.run_for(sim_ms(5000));
  std::size_t delivered = 0;
  for (const auto& n : pm_nodes)
    if (n->has_delivered(e.id())) ++delivered;
  EXPECT_GE(delivered, 8u);
}

TEST(Integration, SequentialEventStream) {
  // A publisher streams 20 events; every one must keep high delivery.
  auto c = make_cluster(4, 2, 2, 1.0, default_config(), 0.0, 10);
  for (std::uint64_t s = 0; s < 20; ++s) {
    Rng rng(100 + s);
    c.nodes[s % c.nodes.size()]->pmcast(
        make_uniform_event(s % c.nodes.size(), s, rng));
    c.runtime->run_until_idle();
  }
  for (std::uint64_t s = 0; s < 20; ++s) {
    std::size_t delivered = 0;
    for (const auto& n : c.nodes)
      if (n->has_delivered(EventId{s % c.nodes.size(), s})) ++delivered;
    EXPECT_GE(delivered, 14u) << "event " << s;
  }
}

TEST(Integration, ClusteredInterestsLocalizeTraffic) {
  // With per-leaf clustered interests, an event matching one leaf's region
  // keeps most traffic inside that subtree (locality claim).
  ExperimentConfig scattered;
  scattered.a = 6;
  scattered.d = 2;
  scattered.r = 2;
  scattered.fanout = 3;
  scattered.pd = 0.15;
  scattered.loss = 0.0;
  scattered.runs = 10;
  scattered.seed = 12;
  auto clustered = scattered;
  clustered.clustered = true;
  clustered.cluster_jitter = 0.0;
  const auto r_scattered = run_pmcast_experiment(scattered);
  const auto r_clustered = run_pmcast_experiment(clustered);
  // Clustered interests mean fewer subgroups infected -> fewer messages.
  EXPECT_LE(r_clustered.messages_per_process.mean(),
            r_scattered.messages_per_process.mean() * 1.5);
}

}  // namespace
}  // namespace pmc
