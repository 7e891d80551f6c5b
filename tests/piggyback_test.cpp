// Membership piggybacking on event gossip (paper Sec. 2.3): membership
// rows ride on GossipMsg via the PmcastNode piggyback hooks wired into
// SyncNode, so view updates spread even when dedicated membership gossip
// is scarce.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "harness/workload.hpp"
#include "membership/sync.hpp"
#include "pmcast/node.hpp"
#include "wire/messages.hpp"

namespace pmc {
namespace {

struct Stack {
  std::vector<Member> members;
  std::unique_ptr<Interns> interns = std::make_unique<Interns>();
  std::unique_ptr<GroupTree> tree;
  std::unique_ptr<Runtime> runtime;
  std::vector<ProcessId> sync_dir;  ///< dense AddrId -> sync pid
  std::vector<ProcessId> pm_dir;    ///< dense AddrId -> pmcast pid
  std::vector<std::unique_ptr<SyncNode>> sync_nodes;
  std::vector<std::unique_ptr<LocalViewProvider>> providers;
  std::vector<std::unique_ptr<PmcastNode>> pm_nodes;
};

/// Builds combined SyncNode+PmcastNode processes with piggybacking wired,
/// with the dedicated membership gossip slowed to once per `sync_period`.
Stack make_stack(SimTime sync_period, bool piggyback,
                 std::uint64_t seed = 5) {
  Stack s;
  Rng rng(seed);
  const auto space = AddressSpace::regular(3, 2);
  s.members = uniform_interest_members(space, 1.0, rng);
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 2;
  s.tree = std::make_unique<GroupTree>(tc, s.members, *s.interns);
  s.runtime = std::make_unique<Runtime>(NetworkConfig{}, seed ^ 0x42);

  for (std::size_t i = 0; i < s.members.size(); ++i) {
    const AddrId id = s.interns->addrs.intern(s.members[i].address);
    if (s.sync_dir.size() <= id) {
      s.sync_dir.resize(id + 1, kNoProcess);
      s.pm_dir.resize(id + 1, kNoProcess);
    }
    s.sync_dir[id] = static_cast<ProcessId>(i);
    s.pm_dir[id] = static_cast<ProcessId>(i + 100);
  }
  SyncConfig sc;
  sc.tree = tc;
  sc.gossip_period = sync_period;
  sc.suspicion_timeout = sync_period * 100;  // irrelevant here
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    s.sync_nodes.push_back(std::make_unique<SyncNode>(
        *s.runtime, static_cast<ProcessId>(i), sc,
        s.tree->materialize_view(s.members[i].address),
        s.members[i].subscription));
    s.sync_nodes.back()->set_directory([&dir = s.sync_dir](AddrId id) {
      return id < dir.size() ? dir[id] : kNoProcess;
    });
  }
  PmcastConfig pc;
  pc.tree = tc;
  pc.fanout = 3;
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    s.providers.push_back(
        std::make_unique<LocalViewProvider>(s.sync_nodes[i]->view()));
    s.pm_nodes.push_back(std::make_unique<PmcastNode>(
        *s.runtime, static_cast<ProcessId>(i + 100), pc,
        s.members[i].address, s.members[i].subscription, *s.providers[i],
        [&dir = s.pm_dir](AddrId id) {
          return id < dir.size() ? dir[id] : kNoProcess;
        }));
    if (piggyback) {
      SyncNode* sync = s.sync_nodes[i].get();
      s.pm_nodes.back()->set_piggyback(
          [sync](AddrId target) { return sync->rows_to_share(target); },
          [sync](const Address& sender, const RowBatch& rows) {
            sync->absorb_rows(sender, rows);
          });
    }
  }
  return s;
}

TEST(Piggyback, GossipCarriesRows) {
  auto s = make_stack(sim_sec(100), /*piggyback=*/true);
  // Intercept a gossip message and verify rows ride along.
  bool saw_piggyback = false;
  s.runtime->network().set_transcoder([&](const MessagePtr& msg) {
    if (const auto* gossip = dynamic_cast<const GossipMsg*>(msg.get())) {
      if (!gossip->piggyback.empty()) saw_piggyback = true;
    }
    return msg;
  });
  s.pm_nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  s.runtime->run_for(sim_sec(5));
  EXPECT_TRUE(saw_piggyback);
}

TEST(Piggyback, SpreadsMembershipWithoutDedicatedGossip) {
  // Dedicated membership gossip effectively disabled (100 s period); a
  // local row bump at one process must still reach its neighbors by
  // riding on event gossip.
  auto s = make_stack(sim_sec(100), /*piggyback=*/true);

  // Simulate a local membership change: node 0 (address 0.0) tombstones
  // its neighbor 0.2 in its own view.
  {
    auto& view =
        const_cast<MembershipView&>(s.sync_nodes[0]->view());
    auto& leaf = view.view(2);
    const std::size_t i = leaf.find_index(2);
    ASSERT_NE(i, DepthView::npos);
    ViewRow tomb = leaf.materialize(i);
    tomb.alive = false;
    tomb.version += 1000;
    leaf.upsert(tomb, RowBatch(view.interns()));
  }

  // A few events published by node 0 spread the row to subgroup peers.
  for (std::uint64_t i = 0; i < 5; ++i) {
    s.pm_nodes[0]->pmcast(make_event_at(0, i, 0.5));
    s.runtime->run_for(sim_sec(3));
  }

  const auto& leaf = s.sync_nodes[1]->view().view(2);
  const std::size_t i = leaf.find_index(2);
  ASSERT_NE(i, DepthView::npos);
  EXPECT_FALSE(leaf.alive(i)) << "piggybacked tombstone did not arrive";
}

TEST(Piggyback, NoHooksNoRows) {
  auto s = make_stack(sim_sec(100), /*piggyback=*/false);
  bool saw_piggyback = false;
  s.runtime->network().set_transcoder([&](const MessagePtr& msg) {
    if (const auto* gossip = dynamic_cast<const GossipMsg*>(msg.get())) {
      if (!gossip->piggyback.empty()) saw_piggyback = true;
    }
    return msg;
  });
  s.pm_nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  s.runtime->run_for(sim_sec(5));
  EXPECT_FALSE(saw_piggyback);
}

TEST(Piggyback, SurvivesWireRoundTrip) {
  auto s = make_stack(sim_sec(100), /*piggyback=*/true);
  s.runtime->network().set_transcoder([](const MessagePtr& msg) {
    return wire::decode_message(wire::encode_message(*msg));
  });
  s.pm_nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  s.runtime->run_for(sim_sec(5));
  std::size_t delivered = 0;
  for (const auto& n : s.pm_nodes)
    if (n->has_delivered(EventId{0, 0})) ++delivered;
  EXPECT_EQ(delivered, s.pm_nodes.size());
}

}  // namespace
}  // namespace pmc
