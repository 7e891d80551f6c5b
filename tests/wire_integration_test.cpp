// End-to-end wire validation: every message of a full simulation is
// serialized and re-parsed at the network boundary (Network::set_transcoder),
// so the complete protocol — dissemination, recovery, and membership
// anti-entropy — runs over the exact byte format a deployment would use.
#include <gtest/gtest.h>

#include "cluster_helpers.hpp"
#include "membership/sync.hpp"
#include "wire/messages.hpp"

namespace pmc {
namespace {

using testing::default_config;
using testing::make_cluster;

Network::Transcoder codec_round_trip() {
  return [](const MessagePtr& msg) -> MessagePtr {
    const auto bytes = wire::encode_message(*msg);
    return wire::decode_message(bytes);
  };
}

TEST(WireIntegration, DisseminationOverSerializedMessages) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config(), 0.0, 81);
  c.runtime->network().set_transcoder(codec_round_trip());
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[4]->pmcast(e);
  c.runtime->run_until_idle();
  std::size_t delivered = 0;
  for (const auto& n : c.nodes)
    if (n->has_delivered(e.id())) ++delivered;
  EXPECT_EQ(delivered, c.nodes.size());
}

TEST(WireIntegration, SerializedEqualsDirectDelivery) {
  // The codec must be transparent: identical seeds, identical outcomes.
  const auto run = [](bool serialize) {
    auto c = make_cluster(3, 3, 2, 0.6, default_config(), 0.05, 82);
    if (serialize) c.runtime->network().set_transcoder(codec_round_trip());
    const Event e = make_event_at(0, 0, 0.4);
    c.nodes[0]->pmcast(e);
    c.runtime->run_until_idle();
    std::vector<bool> outcome;
    for (const auto& n : c.nodes) outcome.push_back(n->has_delivered(e.id()));
    return outcome;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(WireIntegration, RecoveryOverSerializedMessages) {
  // Digest/request/payload recovery messages serialize too: a lossy run
  // with the codec in the path still repairs misses.
  PmcastConfig config = default_config();
  config.recovery_rounds = 5;
  config.env.loss = 0.3;
  auto c = make_cluster(4, 2, 2, 1.0, config, /*loss=*/0.3, 85);
  c.runtime->network().set_transcoder(codec_round_trip());
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  std::size_t delivered = 0;
  for (const auto& n : c.nodes)
    if (n->has_delivered(e.id())) ++delivered;
  EXPECT_GE(delivered, c.nodes.size() - 2);
}

TEST(WireIntegration, MembershipSyncOverSerializedMessages) {
  Rng rng(83);
  const auto space = AddressSpace::regular(3, 2);
  const auto members = uniform_interest_members(space, 0.5, rng);
  SyncConfig config;
  config.tree.depth = 2;
  config.tree.redundancy = 2;
  config.gossip_period = sim_ms(50);
  Interns interns;
  const GroupTree tree(config.tree, members, interns);
  Runtime rt(NetworkConfig{}, 83);
  rt.network().set_transcoder(codec_round_trip());
  const auto dir = testing::pid_table(interns, members);
  std::vector<std::unique_ptr<SyncNode>> nodes;
  for (std::size_t i = 0; i < members.size(); ++i) {
    nodes.push_back(std::make_unique<SyncNode>(
        rt, static_cast<ProcessId>(i), config,
        tree.materialize_view(members[i].address), members[i].subscription,
        testing::lookup(dir)));
  }
  rt.run_for(sim_ms(500));
  // Tombstone propagation through serialized updates.
  nodes[4]->leave();
  rt.run_for(sim_ms(1500));
  std::size_t tombstoned = 0;
  for (const auto& n : nodes) {
    if (!n->alive()) continue;
    if (n->address().component(0) != 1) continue;
    const auto& leaf = n->view().view(2);
    const std::size_t row = leaf.find_index(1);
    if (row != DepthView::npos && !leaf.alive(row)) ++tombstoned;
  }
  EXPECT_GE(tombstoned, 2u);
}

TEST(WireIntegration, DroppingTranscoderActsAsFilter) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config(), 0.0, 84);
  c.runtime->network().set_transcoder(
      [](const MessagePtr&) { return MessagePtr{}; });
  c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  c.runtime->run_until_idle();
  EXPECT_GT(c.runtime->network().counters().filtered, 0u);
  EXPECT_EQ(c.runtime->network().counters().delivered, 0u);
}

}  // namespace
}  // namespace pmc
