// Tests for the paper's Sec. 6 extension mechanisms (leaf flooding, root
// filter coarsening, agreement-before-exclusion) and the Eq. 16/17
// distribution-level analysis.
#include <gtest/gtest.h>

#include <numeric>

#include "analysis/tree_analysis.hpp"
#include "cluster_helpers.hpp"
#include "membership/sync.hpp"

namespace pmc {
namespace {

using testing::default_config;
using testing::make_cluster;

// --- Leaf flooding ---------------------------------------------------------

TEST(LeafFlood, ActivatesAtHighDensity) {
  PmcastConfig config = default_config();
  config.leaf_flood_density = 0.9;
  auto c = make_cluster(4, 2, 2, /*pd=*/1.0, config, 0.0, 3);
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  std::uint64_t floods = 0;
  std::size_t delivered = 0;
  for (const auto& n : c.nodes) {
    floods += n.get()->gossip_stats().leaf_floods;
    if (n->has_delivered(e.id())) ++delivered;
  }
  EXPECT_GT(floods, 0u);
  EXPECT_EQ(delivered, c.nodes.size());  // flood is deterministic per group
}

TEST(LeafFlood, InactiveBelowDensity) {
  PmcastConfig config = default_config();
  config.leaf_flood_density = 0.9;
  auto c = make_cluster(4, 2, 2, /*pd=*/0.3, config, 0.0, 4);
  c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  c.runtime->run_until_idle();
  std::uint64_t floods = 0;
  for (const auto& n : c.nodes) floods += n->gossip_stats().leaf_floods;
  EXPECT_EQ(floods, 0u);
}

TEST(LeafFlood, DisabledByDefault) {
  auto c = make_cluster(4, 2, 2, 1.0, default_config(), 0.0, 5);
  c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  c.runtime->run_until_idle();
  std::uint64_t floods = 0;
  for (const auto& n : c.nodes) floods += n->gossip_stats().leaf_floods;
  EXPECT_EQ(floods, 0u);
}

TEST(LeafFlood, FloodedReceiversDoNotRegossip) {
  // The flood carries GossipMsg::no_regossip: receivers deliver (and
  // retain for recovery) without ever re-buffering the event for gossip,
  // so total messages stay close to one per interested process per
  // subgroup entry.
  PmcastConfig flood_config = default_config();
  flood_config.leaf_flood_density = 0.9;
  auto with_flood = make_cluster(5, 2, 2, 1.0, flood_config, 0.0, 6);
  with_flood.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  with_flood.runtime->run_until_idle();

  auto without = make_cluster(5, 2, 2, 1.0, default_config(), 0.0, 6);
  without.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  without.runtime->run_until_idle();

  EXPECT_LT(with_flood.runtime->network().counters().sent,
            without.runtime->network().counters().sent);
}

// --- Root filter coarsening --------------------------------------------------

std::vector<Member> two_attr_members() {
  // Subscriptions with disjoint (b, u)-boxes: coarsening projects the boxes,
  // so the coarse tree over-approximates but must never lose a match.
  std::vector<Member> members;
  const auto space = AddressSpace::regular(4, 2);
  std::size_t i = 0;
  for (const auto& addr : space.enumerate()) {
    const double lo = 0.06 * static_cast<double>(i);
    members.push_back(Member{
        addr, Subscription::parse(
                  "b == " + std::to_string(i % 5) + " && u >= " +
                  std::to_string(lo) + " && u < " + std::to_string(lo + 0.05))});
    ++i;
  }
  return members;
}

TEST(Coarsening, RowsNearRootGetSimpler) {
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 2;
  Interns exact_interns;
  const GroupTree exact(tc, two_attr_members(), exact_interns);
  GroupTreeOptions opts;
  opts.coarsen_depth_leq = 1;
  Interns coarse_interns;
  const GroupTree coarse(tc, two_attr_members(), coarse_interns, opts);
  std::size_t exact_complexity = 0, coarse_complexity = 0;
  const auto& exact_root = exact.view_at(Prefix::root());
  for (std::size_t i = 0; i < exact_root.size(); ++i)
    exact_complexity += exact_root.interests(i).complexity();
  const auto& coarse_root = coarse.view_at(Prefix::root());
  for (std::size_t i = 0; i < coarse_root.size(); ++i)
    coarse_complexity += coarse_root.interests(i).complexity();
  EXPECT_LT(coarse_complexity, exact_complexity);
}

TEST(Coarsening, NeverLosesAnInterestedProcess) {
  const auto members = two_attr_members();
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 2;
  GroupTreeOptions opts;
  opts.coarsen_depth_leq = 1;
  Interns interns;
  const GroupTree coarse(tc, members, interns, opts);
  Rng rng(8);
  for (int trial = 0; trial < 300; ++trial) {
    Event e;
    e.with("b", static_cast<std::int64_t>(rng.next_below(6)))
        .with("u", rng.next_double());
    for (const auto& m : members) {
      if (!m.subscription.match(e)) continue;
      // The root row covering this member must still match.
      const auto& root = coarse.view_at(Prefix::root());
      const std::size_t row = root.find_index(m.address.component(0));
      ASSERT_NE(row, DepthView::npos);
      EXPECT_TRUE(root.interests(row).match(e));
    }
  }
}

TEST(Coarsening, DeliveryPreservedEndToEnd) {
  // A single interested destination reached through coarsened root rows.
  // The path is probabilistic (one interested subtree among four), so the
  // assertion aggregates over several simulation seeds.
  const auto members = two_attr_members();
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 2;
  GroupTreeOptions opts;
  opts.coarsen_depth_leq = 1;
  Interns interns;
  const GroupTree tree(tc, members, interns, opts);

  std::size_t successes = 0;
  const std::size_t attempts = 8;
  for (std::uint64_t seed = 0; seed < attempts; ++seed) {
    Runtime rt(NetworkConfig{}, 10 + seed);
    const auto dir = testing::pid_table(interns, members);
    PmcastConfig config = default_config();
    config.tree = tc;
    config.fanout = 4;
    // A single interested destination is exactly the small-audience case
    // where the untuned round bound collapses to zero (Sec. 5.1); the
    // h-tuning keeps the event alive long enough to reach it.
    config.tuning_threshold = 3;
    std::vector<std::unique_ptr<PmcastNode>> nodes;
    for (std::size_t i = 0; i < members.size(); ++i)
      nodes.push_back(std::make_unique<PmcastNode>(
          rt, static_cast<ProcessId>(i), config, members[i].address,
          members[i].subscription, tree.tables_for(members[i].address),
          testing::lookup(dir)));
    // Event matching member index 3 (b == 3, u in [0.18, 0.23)).
    Event e(EventId{0, seed});
    e.with("b", 3).with("u", 0.2);
    nodes[9]->pmcast(e);
    rt.run_until_idle();
    if (nodes[3]->has_delivered(e.id())) ++successes;
  }
  EXPECT_GE(successes, attempts - 2);
}

// --- Agreement before exclusion ----------------------------------------------

struct SyncPair {
  std::vector<Member> members;
  std::unique_ptr<Interns> interns = std::make_unique<Interns>();
  std::unique_ptr<GroupTree> tree;
  std::unique_ptr<Runtime> runtime;
  std::vector<ProcessId> directory;  ///< dense AddrId -> pid
  std::vector<std::unique_ptr<SyncNode>> nodes;
};

SyncPair make_sync(bool confirm, std::uint64_t seed) {
  SyncPair c;
  Rng rng(seed);
  const auto space = AddressSpace::regular(4, 2);
  c.members = uniform_interest_members(space, 0.5, rng);
  SyncConfig config;
  config.tree.depth = 2;
  config.tree.redundancy = 2;
  config.gossip_period = sim_ms(50);
  config.suspicion_timeout = sim_ms(400);
  config.confirm_suspicion = confirm;
  c.tree = std::make_unique<GroupTree>(config.tree, c.members, *c.interns);
  c.runtime = std::make_unique<Runtime>(NetworkConfig{}, seed ^ 0x99);
  c.directory = testing::pid_table(*c.interns, c.members);
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    c.nodes.push_back(std::make_unique<SyncNode>(
        *c.runtime, static_cast<ProcessId>(i), config,
        c.tree->materialize_view(c.members[i].address),
        c.members[i].subscription, testing::lookup(c.directory)));
  }
  return c;
}

TEST(SuspicionConfirmation, RealCrashStillDetected) {
  auto c = make_sync(/*confirm=*/true, 21);
  c.runtime->run_for(sim_ms(300));
  c.nodes[1]->crash();  // 0.1
  c.runtime->run_for(sim_ms(4000));
  std::size_t tombstoned = 0;
  for (const auto& n : c.nodes) {
    if (!n->alive() || n->address().component(0) != 0) continue;
    const auto& leaf = n->view().view(2);
    const std::size_t row = leaf.find_index(1);
    if (row != DepthView::npos && !leaf.alive(row)) ++tombstoned;
  }
  EXPECT_GE(tombstoned, 2u);
}

TEST(SuspicionConfirmation, OneSidedSilenceDoesNotExclude) {
  // Drop only 0.1 -> 0.0 traffic: without confirmation 0.0 falsely excludes
  // 0.1; with confirmation it asks 0.2/0.3, which still hear from 0.1.
  const auto run = [](bool confirm) {
    auto c = make_sync(confirm, 22);
    const ProcessId victim = 1;   // address 0.1
    const ProcessId observer = 0;  // address 0.0
    c.runtime->network().add_link_filter(
        [victim, observer](ProcessId from, ProcessId to) {
          return !(from == victim && to == observer);
        });
    c.runtime->run_for(sim_ms(4000));
    const auto& leaf = c.nodes[observer]->view().view(2);
    const std::size_t row = leaf.find_index(1);
    return row != DepthView::npos && leaf.alive(row);
  };
  EXPECT_TRUE(run(true));    // confirmation saves the healthy process
  EXPECT_FALSE(run(false));  // unilateral exclusion fires
}

// --- Eq. 16/17 distribution --------------------------------------------------

TEST(TreeDistribution, NormalizedPerDepth) {
  TreeAnalysisParams p;
  p.a = 5;
  p.d = 3;
  p.r = 2;
  p.fanout = 3;
  p.pd = 0.4;
  const auto dists = tree_infection_distribution(p);
  ASSERT_EQ(dists.size(), 3u);
  for (const auto& dist : dists) {
    const double total = std::accumulate(dist.begin(), dist.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (const auto v : dist) EXPECT_GE(v, -1e-12);
  }
}

TEST(TreeDistribution, ExpectationMatchesProductFormula) {
  TreeAnalysisParams p;
  p.a = 4;
  p.d = 2;
  p.r = 2;
  p.fanout = 3;
  p.pd = 0.6;
  const auto base = analyze_tree(p);
  const auto dists = tree_infection_distribution(p);
  for (std::size_t i = 0; i < dists.size(); ++i) {
    double mean = 0.0;
    for (std::size_t k = 0; k < dists[i].size(); ++k)
      mean += static_cast<double>(k) * dists[i][k];
    // The distribution rounds the per-parent child count to an integer, so
    // allow a rounding-induced band around the closed-form expectation.
    EXPECT_NEAR(mean, base.depths[i].expected_gi,
                0.15 * std::max(1.0, base.depths[i].expected_gi));
  }
}

TEST(TreeDistribution, StateSpaceGuard) {
  TreeAnalysisParams p;
  p.a = 40;
  p.d = 3;
  p.r = 3;
  p.pd = 0.9;
  EXPECT_THROW(tree_infection_distribution(p, /*max_states=*/64),
               std::logic_error);
}

TEST(TreeDistribution, FullInterestConcentratesHigh) {
  TreeAnalysisParams p;
  p.a = 4;
  p.d = 2;
  p.r = 2;
  p.fanout = 4;
  p.pd = 1.0;
  const auto dists = tree_infection_distribution(p);
  const auto& leaf = dists.back();
  // Mass should concentrate near full infection (16 processes).
  double tail = 0.0;
  for (std::size_t k = 12; k < leaf.size(); ++k) tail += leaf[k];
  EXPECT_GT(tail, 0.8);
}

}  // namespace
}  // namespace pmc
