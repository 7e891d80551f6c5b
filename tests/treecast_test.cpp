// Deterministic tree multicast (Astrolabe-style baseline): perfect and
// cheap in stable phases, fragile under crashes — the contrast the paper's
// concluding remarks draw against pmcast.
#include <gtest/gtest.h>

#include "baselines/treecast.hpp"

#include "cluster_helpers.hpp"
#include "harness/experiment.hpp"
#include "harness/workload.hpp"

namespace pmc {
namespace {

struct TreecastCluster {
  std::vector<Member> members;
  std::unique_ptr<Interns> interns = std::make_unique<Interns>();
  std::unique_ptr<GroupTree> tree;
  std::unique_ptr<Runtime> runtime;
  std::vector<ProcessId> directory;  ///< dense AddrId -> pid
  std::vector<std::unique_ptr<TreecastNode>> nodes;

  ProcessId pid_of(const Address& a) const {
    const AddrId id = interns->addrs.find(a);
    return id == kNoAddr ? kNoProcess : directory.at(id);
  }
};

TreecastCluster make_treecast(std::size_t a, std::size_t d, double pd,
                              std::uint64_t seed = 1) {
  TreecastCluster c;
  Rng rng(seed);
  c.members = uniform_interest_members(
      AddressSpace::regular(static_cast<AddrComponent>(a), d), pd, rng);
  TreeConfig tree_config;
  tree_config.depth = d;
  tree_config.redundancy = 2;
  c.tree = std::make_unique<GroupTree>(tree_config, c.members, *c.interns);
  c.runtime = std::make_unique<Runtime>(NetworkConfig{}, seed ^ 0x7);
  c.directory = testing::pid_table(*c.interns, c.members);
  TreecastConfig config;
  config.tree = tree_config;
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    c.nodes.push_back(std::make_unique<TreecastNode>(
        *c.runtime, static_cast<ProcessId>(i), config,
        c.members[i].address, c.members[i].subscription,
        c.tree->tables_for(c.members[i].address),
        testing::lookup(c.directory)));
  }
  return c;
}

TEST(Treecast, StablePhaseDeliversToEveryInterested) {
  // Deterministic: every interested process delivers, no probability.
  auto c = make_treecast(4, 3, 0.5, 2);
  const Event e = make_event_at(0, 0, 0.3);
  c.nodes[10]->multicast(e);
  c.runtime->run_until_idle();
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    if (c.members[i].subscription.match(e)) {
      EXPECT_TRUE(c.nodes[i]->has_delivered(e.id())) << i;
    } else {
      EXPECT_FALSE(c.nodes[i]->has_delivered(e.id())) << i;
    }
  }
}

TEST(Treecast, MessageCostNearInterestedCount) {
  auto c = make_treecast(5, 2, 0.4, 3);
  const Event e = make_event_at(0, 0, 0.7);
  std::size_t interested = 0;
  for (const auto& m : c.members)
    if (m.subscription.match(e)) ++interested;
  c.nodes[0]->multicast(e);
  c.runtime->run_until_idle();
  const auto sent = c.runtime->network().counters().sent;
  // One message per interested process plus at most one per subgroup.
  EXPECT_LE(sent, interested + 5 + 1);
}

TEST(Treecast, SingleCrashedForwarderSeversSubtree) {
  // The fragility: crash subgroup 2's first delegate and every interested
  // process in subtree 2 is lost — no redundancy, no retry.
  auto c = make_treecast(4, 2, 1.0, 4);
  c.nodes[c.pid_of(Address::parse("2.0"))]->crash();
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->multicast(e);
  c.runtime->run_until_idle();
  for (const auto& n : c.nodes) {
    if (!n->alive()) continue;
    if (n->address().component(0) == 2) {
      EXPECT_FALSE(n->has_received(e.id())) << n->address().to_string();
    } else {
      EXPECT_TRUE(n->has_delivered(e.id())) << n->address().to_string();
    }
  }
}

TEST(Treecast, PmcastMoreRobustUnderCrashes) {
  // The paper's qualitative claim, quantified. Treecast forwards complete
  // within milliseconds, so mid-run crash injection cannot touch it; the
  // "unstable phase" is modeled as processes already crashed (but not yet
  // excluded from anyone's views) when the event is published. pmcast's
  // R-redundant random gossip routes around them; treecast's single
  // deterministic forwarder per subgroup does not.
  double det_delivery = 0.0, gossip_delivery = 0.0;
  const std::size_t trials = 10;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    Rng crash_rng(500 + seed);
    const auto victims = crash_rng.sample_without_replacement(64, 10);

    // Deterministic treecast.
    {
      auto c = make_treecast(8, 2, 0.8, 900 + seed);
      for (const auto v : victims) c.nodes[v]->crash();
      const Event e = make_event_at(0, seed, 0.5);
      std::size_t publisher = 0;
      while (!c.nodes[publisher]->alive()) ++publisher;
      c.nodes[publisher]->multicast(e);
      c.runtime->run_until_idle();
      std::size_t interested = 0, delivered = 0;
      for (std::size_t i = 0; i < c.nodes.size(); ++i) {
        if (!c.nodes[i]->alive() || !c.members[i].subscription.match(e))
          continue;
        ++interested;
        if (c.nodes[i]->has_delivered(e.id())) ++delivered;
      }
      det_delivery += interested == 0 ? 1.0
                                      : static_cast<double>(delivered) /
                                            static_cast<double>(interested);
    }

    // pmcast with the same population shape and victims.
    {
      PmcastConfig pc = testing::default_config();
      auto c = testing::make_cluster(8, 2, 3, 0.8, pc, 0.0, 900 + seed);
      for (const auto v : victims) c.nodes[v]->crash();
      const Event e = make_event_at(0, seed, 0.5);
      std::size_t publisher = 0;
      while (!c.nodes[publisher]->alive()) ++publisher;
      c.nodes[publisher]->pmcast(e);
      c.runtime->run_until_idle();
      std::size_t interested = 0, delivered = 0;
      for (std::size_t i = 0; i < c.nodes.size(); ++i) {
        if (!c.nodes[i]->alive() || !c.members[i].subscription.match(e))
          continue;
        ++interested;
        if (c.nodes[i]->has_delivered(e.id())) ++delivered;
      }
      gossip_delivery += interested == 0
                             ? 1.0
                             : static_cast<double>(delivered) /
                                   static_cast<double>(interested);
    }
  }
  EXPECT_GT(gossip_delivery, det_delivery);

  // ...and in the stable phase the deterministic tree is cheaper.
  ExperimentConfig stable;
  stable.a = 8;
  stable.d = 2;
  stable.r = 3;
  stable.fanout = 3;
  stable.pd = 0.8;
  stable.loss = 0.0;
  stable.runs = 10;
  stable.seed = 5;
  const auto det_stable = run_treecast_experiment(stable);
  const auto gossip_stable = run_pmcast_experiment(stable);
  EXPECT_LT(det_stable.messages_per_process.mean(),
            gossip_stable.messages_per_process.mean());
  EXPECT_GT(det_stable.delivery.mean(), 0.99);
}

TEST(Treecast, DuplicateMulticastIgnored) {
  auto c = make_treecast(3, 2, 1.0, 6);
  const Event e = make_event_at(0, 9, 0.5);
  c.nodes[0]->multicast(e);
  c.runtime->run_until_idle();
  const auto sent = c.runtime->network().counters().sent;
  c.nodes[1]->multicast(e);  // same id from elsewhere
  c.runtime->run_until_idle();
  // Receivers have seen the id; only node 1's own forwards add traffic.
  EXPECT_LE(c.runtime->network().counters().sent, sent + 9);
}

TEST(Treecast, ConstructionChecksItsTables) {
  // As PmcastNode: exactly d tables, none null, all bound to one Interns.
  auto c = make_treecast(3, 2, 1.0, 8);
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 2;
  Interns other_interns;
  const GroupTree other(tc, c.members, other_interns);
  const Member& m = c.members[0];
  const auto own = c.tree->tables_for(m.address);
  TreecastConfig config;
  config.tree = tc;
  const auto build = [&](std::vector<const DepthView*> tables) {
    return std::make_unique<TreecastNode>(
        *c.runtime, ProcessId{99}, config, m.address, m.subscription, tables,
        [](AddrId) { return kNoProcess; });
  };
  EXPECT_NO_THROW(build(own));
  EXPECT_THROW(build({own[0]}), std::logic_error);
  EXPECT_THROW(build({own[0], nullptr}), std::logic_error);
  EXPECT_THROW(build({own[0], other.tables_for(m.address)[1]}),
               std::logic_error);
}

TEST(Treecast, UninterestedSubtreesNeverTouched) {
  auto c = make_treecast(4, 2, 0.25, 7);
  const Event e = make_event_at(0, 0, 0.9);
  c.nodes[0]->multicast(e);
  c.runtime->run_until_idle();
  for (std::size_t i = 1; i < c.nodes.size(); ++i) {
    // Treecast sends only to delegates of interested rows and interested
    // neighbors: an uninterested process receives only if it is the first
    // delegate of a subgroup containing interest.
    if (c.members[i].subscription.match(e)) continue;
    const DepthView& root = c.tree->view_at(Prefix::root());
    const std::size_t row = root.find_index(c.members[i].address.component(0));
    const bool forwarder =
        c.interns->addrs.resolve(root.first_delegate(row)) ==
            c.members[i].address &&
        root.interests(row).match(e);
    if (!forwarder) {
      EXPECT_FALSE(c.nodes[i]->has_received(e.id()))
          << c.members[i].address.to_string();
    }
  }
}

}  // namespace
}  // namespace pmc
