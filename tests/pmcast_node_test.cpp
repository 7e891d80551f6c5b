#include "pmcast/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster_helpers.hpp"

namespace pmc {
namespace {

using testing::Cluster;
using testing::default_config;
using testing::make_cluster;

TEST(PmcastNode, EveryoneInterestedEveryoneDelivers) {
  auto c = make_cluster(3, 2, 2, /*pd=*/1.0, default_config());
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[4]->pmcast(e);
  c.runtime->run_until_idle();
  for (const auto& node : c.nodes)
    EXPECT_TRUE(node->has_delivered(e.id())) << node->address().to_string();
}

TEST(PmcastNode, PublisherDeliversLocallyWhenInterested) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  EXPECT_TRUE(c.nodes[0]->has_delivered(e.id()));
  EXPECT_EQ(c.nodes[0]->gossip_stats().published, 1u);
}

TEST(PmcastNode, UninterestedNonDelegatesNeverReceive) {
  // With exact interval regrouping, an event is only ever sent to processes
  // whose row matches: uninterested leaf processes (non-delegates) must not
  // be touched — pmcast's defining property versus broadcast (Fig. 5).
  auto c = make_cluster(4, 3, 2, /*pd=*/0.4, default_config(), 0.0, 3);
  const Event e = make_event_at(1, 0, 0.3);
  c.nodes[7]->pmcast(e);
  c.runtime->run_until_idle();
  for (const auto& node : c.nodes) {
    if (node->interested_in(e)) continue;
    if (node->id() == 7) continue;  // the publisher buffers its own event
    if (!c.is_delegate(node->address())) {
      EXPECT_FALSE(node->has_received(e.id()))
          << node->address().to_string();
    }
  }
}

TEST(PmcastNode, CrossSubtreeDelivery) {
  auto c = make_cluster(3, 3, 2, 1.0, default_config(), 0.0, 5);
  // Publish from 0.0.0; check delivery in the farthest subtree 2.x.x.
  const Event e = make_event_at(0, 0, 0.2);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  std::size_t far_delivered = 0, far_total = 0;
  for (const auto& node : c.nodes) {
    if (node->address().component(0) != 2) continue;
    ++far_total;
    if (node->has_delivered(e.id())) ++far_delivered;
  }
  EXPECT_EQ(far_total, 9u);
  EXPECT_GE(far_delivered, 8u);  // allow one probabilistic miss
}

TEST(PmcastNode, DeliverHandlerInvokedExactlyOnce) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  std::vector<int> calls(c.nodes.size(), 0);
  for (std::size_t i = 0; i < c.nodes.size(); ++i)
    c.nodes[i]->set_deliver_handler(
        [&calls, i](const Event&) { ++calls[i]; });
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[2]->pmcast(e);
  c.runtime->run_until_idle();
  for (const auto count : calls) EXPECT_LE(count, 1);
  EXPECT_GE(calls[2], 1);
}

TEST(PmcastNode, QuiescesAfterBoundedRounds) {
  // Passive garbage collection: the run must drain on its own.
  auto c = make_cluster(3, 3, 2, 0.8, default_config(), 0.0, 9);
  c.nodes[3]->pmcast(make_event_at(3, 0, 0.1));
  c.runtime->run_until_idle();
  EXPECT_TRUE(c.runtime->scheduler().empty());
  // Sanity: time advanced but is bounded (no runaway regossiping).
  EXPECT_LT(c.runtime->now(), sim_ms(100) * 200);
}

TEST(PmcastNode, NoSelfSends) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  c.runtime->network().add_link_filter([](ProcessId from, ProcessId to) {
    EXPECT_NE(from, to) << "node gossiped to itself";
    return true;
  });
  c.nodes[1]->pmcast(make_event_at(1, 0, 0.5));
  c.runtime->run_until_idle();
}

TEST(PmcastNode, SecondPublishOfSameEventIgnoredByReceivers) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  const Event e = make_event_at(0, 7, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  const auto received_before = c.nodes[5]->stats().received;
  c.nodes[1]->pmcast(e);  // same EventId republished elsewhere
  c.runtime->run_until_idle();
  EXPECT_EQ(c.nodes[5]->stats().received, received_before);
}

TEST(PmcastNode, MultipleConcurrentEvents) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  const Event e1 = make_event_at(0, 0, 0.3);
  const Event e2 = make_event_at(1, 0, 0.7);
  c.nodes[0]->pmcast(e1);
  c.nodes[1]->pmcast(e2);
  c.runtime->run_until_idle();
  std::size_t d1 = 0, d2 = 0;
  for (const auto& node : c.nodes) {
    if (node->has_delivered(e1.id())) ++d1;
    if (node->has_delivered(e2.id())) ++d2;
  }
  EXPECT_GE(d1, 8u);
  EXPECT_GE(d2, 8u);
}

TEST(PmcastNode, CrashedPublisherRejected) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  c.nodes[0]->crash();
  EXPECT_THROW(c.nodes[0]->pmcast(make_event_at(0, 0, 0.5)),
               std::logic_error);
}

TEST(PmcastNode, SurvivesCrashedDelegatesWithRedundancy) {
  // R=3: killing one delegate per leaf subgroup must not break delivery.
  auto c = make_cluster(4, 2, 3, 1.0, default_config(), 0.0, 11);
  // Crash the smallest-address member of each leaf subgroup except the
  // publisher's.
  for (AddrComponent g = 1; g < 4; ++g) {
    const AddrId id =
        c.interns->addrs.find(Address(std::vector<AddrComponent>{g, 0}));
    ASSERT_NE(id, kNoAddr);
    c.nodes[c.pid_by_id[id]]->crash();
  }
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  std::size_t delivered = 0, alive_count = 0;
  for (const auto& node : c.nodes) {
    if (!node->alive()) continue;
    ++alive_count;
    if (node->has_delivered(e.id())) ++delivered;
  }
  EXPECT_EQ(alive_count, 13u);
  EXPECT_GE(delivered, 12u);
}

TEST(PmcastNode, LocalInterestShortcutSkipsRootGossip) {
  // Build members by hand: only the publisher's own leaf subgroup is
  // interested, so the event should skip straight to the leaf depth.
  const auto run = [](bool shortcut) {
    std::vector<Member> members;
    const auto space = AddressSpace::regular(3, 2);
    for (const auto& addr : space.enumerate()) {
      const bool own_group = addr.component(0) == 0;
      members.push_back(Member{
          addr, own_group ? Subscription::parse("u < 1.0")
                          : Subscription::parse("u > 2.0")});
    }
    TreeConfig tc;
    tc.depth = 2;
    tc.redundancy = 2;
    Interns interns;
    GroupTree tree(tc, members, interns);
    Runtime rt(NetworkConfig{}, 17);
    const auto dir = testing::pid_table(interns, members);
    PmcastConfig config = testing::default_config();
    config.tree = tc;
    config.local_interest_shortcut = shortcut;
    std::vector<std::unique_ptr<PmcastNode>> nodes;
    for (std::size_t i = 0; i < members.size(); ++i)
      nodes.push_back(std::make_unique<PmcastNode>(
          rt, static_cast<ProcessId>(i), config, members[i].address,
          members[i].subscription, tree.tables_for(members[i].address),
          testing::lookup(dir)));
    nodes[0]->pmcast(make_event_at(0, 0, 0.5));
    rt.run_until_idle();
    std::size_t delivered = 0;
    for (const auto& n : nodes)
      if (n->has_delivered(EventId{0, 0})) ++delivered;
    return std::pair{rt.network().counters().sent, delivered};
  };
  const auto [msgs_with, delivered_with] = run(true);
  const auto [msgs_without, delivered_without] = run(false);
  EXPECT_EQ(delivered_with, 3u);  // the whole leaf subgroup
  EXPECT_EQ(delivered_without, 3u);
  EXPECT_LE(msgs_with, msgs_without);
}

TEST(PmcastNode, TuningIncreasesUninterestedReceptions) {
  // Sec. 5.3's compromise: the tuned variant reaches more uninterested
  // processes. Compare total receptions at a small matching rate.
  const auto receptions = [](std::size_t h) {
    PmcastConfig config = testing::default_config();
    config.tuning_threshold = h;
    auto c = make_cluster(5, 2, 2, /*pd=*/0.1, config, 0.0, 23);
    c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
    c.runtime->run_until_idle();
    std::size_t count = 0;
    for (const auto& node : c.nodes)
      if (!node->interested_in(make_event_at(0, 0, 0.5)) &&
          node->has_received(EventId{0, 0}))
        ++count;
    return count;
  };
  EXPECT_GE(receptions(6), receptions(0));
}

TEST(PmcastNode, WorksWithMaterializedViews) {
  // Deployment configuration: every node owns a materialized view.
  const auto space = AddressSpace::regular(3, 2);
  Rng rng(31);
  const auto members = uniform_interest_members(space, 1.0, rng);
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 2;
  Interns interns;
  const GroupTree tree(tc, members, interns);

  Runtime rt(NetworkConfig{}, 31);
  const auto dir = testing::pid_table(interns, members);

  std::vector<MembershipView> views;
  views.reserve(members.size());
  for (const auto& m : members) views.push_back(tree.materialize_view(m.address));
  std::vector<std::unique_ptr<PmcastNode>> nodes;
  PmcastConfig config = testing::default_config();
  config.tree = tc;
  for (std::size_t i = 0; i < members.size(); ++i) {
    nodes.push_back(std::make_unique<PmcastNode>(
        rt, static_cast<ProcessId>(i), config, members[i].address,
        members[i].subscription, views[i].tables_for(members[i].address),
        testing::lookup(dir)));
  }
  nodes[4]->pmcast(make_event_at(4, 0, 0.5));
  rt.run_until_idle();
  std::size_t delivered = 0;
  for (const auto& n : nodes)
    if (n->has_delivered(EventId{4, 0})) ++delivered;
  EXPECT_GE(delivered, 8u);
}

TEST(PmcastNode, ConstructionChecksItsTables) {
  // The tables are checked once, when the node is built: exactly d of
  // them, none null, all bound to one Interns.
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 2;
  Interns other_interns;
  const GroupTree other(tc, c.members, other_interns);
  const Member& m = c.members[0];
  const auto own = c.tree->tables_for(m.address);
  PmcastConfig config = default_config();
  config.tree = tc;
  const auto build = [&](std::vector<const DepthView*> tables) {
    return std::make_unique<PmcastNode>(*c.runtime, ProcessId{99}, config,
                                        m.address, m.subscription, tables,
                                        c.directory_fn());
  };
  EXPECT_NO_THROW(build(own));
  EXPECT_THROW(build({own[0]}), std::logic_error);
  EXPECT_THROW(build({own[0], nullptr}), std::logic_error);
  EXPECT_THROW(build({own[0], other.tables_for(m.address)[1]}),
               std::logic_error);
}

/// Records the depth of every gossip it receives.
class GossipProbe final : public Process {
 public:
  using Process::Process;
  std::vector<std::uint32_t> depths;

 protected:
  void on_message(ProcessId /*from*/, const MessagePtr& msg) override {
    if (msg->kind == MsgKind::Gossip)
      depths.push_back(static_cast<const GossipMsg&>(*msg).depth);
  }
};

/// A publisher at `self` on a MembershipView the test fills and mutates,
/// and one GossipProbe per other address the test registers.
struct LiveViewRig {
  LiveViewRig(const char* self, std::size_t depth)
      : view(Address::parse(self), tree_config(depth), interns) {
    register_pid(view.self_id(), 0);
  }

  static TreeConfig tree_config(std::size_t depth) {
    TreeConfig tc;
    tc.depth = depth;
    tc.redundancy = 1;
    return tc;
  }

  /// A probe at the next pid for `address`; returns its id.
  AddrId add_probe(const char* address) {
    const AddrId id = interns.addrs.intern(Address::parse(address));
    const auto pid = static_cast<ProcessId>(probes.size() + 1);
    register_pid(id, pid);
    probes.push_back(std::make_unique<GossipProbe>(rt, pid));
    return id;
  }

  void register_pid(AddrId id, ProcessId pid) {
    if (pids.size() <= id) pids.resize(id + 1, kNoProcess);
    pids[id] = pid;
  }

  /// The publishing node; call once the rows are in place.
  PmcastNode& publisher(PmcastConfig config) {
    config.tree = view.config();
    node = std::make_unique<PmcastNode>(
        rt, ProcessId{0}, config, view.self(), Subscription(),
        view.tables_for(view.self()), testing::lookup(pids));
    return *node;
  }

  Interns interns;
  MembershipView view;
  Runtime rt{NetworkConfig{}, 7};
  std::vector<ProcessId> pids;  ///< AddrId -> pid
  std::vector<std::unique_ptr<GossipProbe>> probes;
  std::unique_ptr<PmcastNode> node;
};

TEST(PmcastNode, GossipFollowsATableThatChangesBetweenRounds) {
  // A buffered event keeps its candidate list while its table is
  // unchanged. Tombstoning one interested row and widening an uninterested
  // row's interests between two rounds of one event must move every later
  // round: no more gossip to the removed delegate, gossip to the new one.
  LiveViewRig rig("0", 1);
  const auto all =
      rig.interns.summaries.intern(InterestSummary::from(Subscription()));
  const auto none = rig.interns.summaries.intern(
      InterestSummary::from(Subscription::parse("u > 2")));
  DepthView& table = rig.view.view(1);
  std::vector<AddrId> ids;
  for (const char* a : {"1", "2", "3"}) ids.push_back(rig.add_probe(a));
  for (AddrComponent c = 1; c <= 3; ++c)
    table.upsert_pooled(c, {&ids[c - 1], 1}, c == 3 ? none : all, 1, 1,
                        true);

  // F covers every candidate, so each round addresses every interested
  // one; c lengthens the round bound past the change.
  PmcastConfig config = default_config();
  config.pittel_c = 3.0;
  rig.publisher(config).pmcast(make_event_at(0, 0, 0.5));
  rig.rt.run_until(sim_ms(150));  // round 1 at 100 ms, delivered by 101 ms
  const auto& removed = rig.probes[0]->depths;
  const auto& kept = rig.probes[1]->depths;
  const auto& added = rig.probes[2]->depths;
  ASSERT_EQ(removed.size(), 1u);
  ASSERT_EQ(kept.size(), 1u);
  ASSERT_TRUE(added.empty());

  table.upsert_pooled(1, {&ids[0], 1}, all, 1, 2, /*alive=*/false);
  table.upsert_pooled(3, {&ids[2], 1}, all, 1, 2, true);
  rig.rt.run_until_idle();
  EXPECT_EQ(removed.size(), 1u);
  EXPECT_GT(kept.size(), 1u);
  EXPECT_EQ(added.size(), kept.size() - 1);
}

TEST(PmcastNode, ARebuiltListThatShrankGrowsWithItsTable) {
  // A rebuild refills the entry's array while the new list fits. A table
  // that loses a row and then gains two must still reach every member it
  // lists after the growth, and never the row it lost.
  LiveViewRig rig("0", 1);
  const auto all =
      rig.interns.summaries.intern(InterestSummary::from(Subscription()));
  DepthView& table = rig.view.view(1);
  std::vector<AddrId> ids;
  for (const char* a : {"1", "2", "3", "4", "5"})
    ids.push_back(rig.add_probe(a));
  for (AddrComponent c = 1; c <= 3; ++c)
    table.upsert_pooled(c, {&ids[c - 1], 1}, all, 1, 1, true);

  // F covers every candidate, so each round addresses all of them.
  PmcastConfig config = default_config();
  config.fanout = 4;
  config.pittel_c = 3.0;
  rig.publisher(config).pmcast(make_event_at(0, 0, 0.5));
  rig.rt.run_until(sim_ms(150));  // round 1 from three members
  ASSERT_EQ(rig.probes[0]->depths.size(), 1u);

  table.upsert_pooled(1, {&ids[0], 1}, all, 1, 2, /*alive=*/false);
  rig.rt.run_until(sim_ms(250));  // round 2 from two
  const std::size_t kept_before_growth = rig.probes[1]->depths.size();
  ASSERT_EQ(kept_before_growth, 2u);

  for (AddrComponent c = 4; c <= 5; ++c)
    table.upsert_pooled(c, {&ids[c - 1], 1}, all, 1, 2, true);
  rig.rt.run_until_idle();
  const std::size_t later = rig.probes[1]->depths.size() - kept_before_growth;
  EXPECT_GT(later, 0u);
  EXPECT_EQ(rig.probes[0]->depths.size(), 1u);
  EXPECT_EQ(rig.probes[2]->depths.size(), kept_before_growth + later);
  EXPECT_EQ(rig.probes[3]->depths.size(), later);
  EXPECT_EQ(rig.probes[4]->depths.size(), later);
}

TEST(PmcastNode, APromotedEventDrawsFromItsNewDepthsTableOnly) {
  // The depth-2 table was never written (mutations() == 0): the entry
  // promoted there must carry the list built from it (empty), never the
  // depth-1 list it was promoted from.
  LiveViewRig rig("0.0", 2);
  const auto all =
      rig.interns.summaries.intern(InterestSummary::from(Subscription()));
  for (AddrComponent c = 1; c <= 3; ++c) {
    const AddrId far = rig.add_probe((std::to_string(c) + ".0").c_str());
    rig.view.view(1).upsert_pooled(c, {&far, 1}, all, 1, 1, true);
  }
  ASSERT_EQ(rig.view.view(2).mutations(), 0u);

  // Leaf flooding at any density addresses every interested candidate of
  // the list the depth-2 entry holds, whatever its rate.
  PmcastConfig config = default_config();
  config.pittel_c = 2.0;
  config.leaf_flood_density = 0.0;
  PmcastNode& node = rig.publisher(config);
  node.pmcast(make_event_at(0, 0, 0.5));
  rig.rt.run_until_idle();
  std::size_t received = 0;
  for (const auto& probe : rig.probes) {
    received += probe->depths.size();
    for (const std::uint32_t depth : probe->depths) EXPECT_EQ(depth, 1u);
  }
  EXPECT_GT(received, 0u);
  EXPECT_EQ(node.stats().sent, received);
}

TEST(PmcastNode, StatsAreConsistent) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  c.runtime->run_until_idle();
  std::uint64_t total_sent = 0;
  for (const auto& node : c.nodes) {
    const auto& s = node->stats();
    // Each executed round sends at most F gossips.
    EXPECT_LE(s.sent, node->gossip_stats().rounds_run * 3);
    total_sent += s.sent;
  }
  EXPECT_EQ(total_sent, c.runtime->network().counters().sent);
}

TEST(PmcastNode, DepthOneTree) {
  auto c = make_cluster(6, 1, 2, 1.0, default_config(), 0.0, 41);
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  std::size_t delivered = 0;
  for (const auto& n : c.nodes)
    if (n->has_delivered(e.id())) ++delivered;
  EXPECT_GE(delivered, 5u);
}

TEST(PmcastNode, IgnoresForeignMessages) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  struct Alien final : MessageBase {};
  c.runtime->network().send(99, 0, std::make_shared<Alien>());
  c.runtime->run_until_idle();
  EXPECT_EQ(c.nodes[0]->stats().received, 0u);
}

}  // namespace
}  // namespace pmc
