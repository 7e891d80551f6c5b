// Membership piggybacking on event gossip (paper Sec. 2.3): membership
// rows ride on GossipMsg via the PmcastNode piggyback hooks wired into
// SyncNode, so view updates spread even when dedicated membership gossip
// is scarce.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "cluster_helpers.hpp"
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
  std::vector<std::unique_ptr<PmcastNode>> pm_nodes;  ///< reads sync_nodes
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
  s.sync_dir = testing::pid_table(*s.interns, s.members);
  s.pm_dir = testing::pid_table(*s.interns, s.members, 100);
  SyncConfig sc;
  sc.tree = tc;
  sc.gossip_period = sync_period;
  sc.suspicion_timeout = sync_period * 100;  // irrelevant here
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    s.sync_nodes.push_back(std::make_unique<SyncNode>(
        *s.runtime, static_cast<ProcessId>(i), sc,
        s.tree->materialize_view(s.members[i].address),
        s.members[i].subscription, testing::lookup(s.sync_dir)));
  }
  PmcastConfig pc;
  pc.tree = tc;
  pc.fanout = 3;
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    s.pm_nodes.push_back(std::make_unique<PmcastNode>(
        *s.runtime, static_cast<ProcessId>(i + 100), pc,
        s.members[i].address, s.members[i].subscription,
        s.sync_nodes[i]->view().tables_for(s.members[i].address),
        testing::lookup(s.pm_dir)));
    if (piggyback) {
      SyncNode* sync = s.sync_nodes[i].get();
      s.pm_nodes.back()->set_piggyback(
          [sync](AddrId target) { return sync->rows_to_share(target); },
          [sync](const AddrRef& sender, const RowBatch& rows) {
            sync->absorb_rows(sender, rows);
          });
    }
  }
  return s;
}

/// Tombstones the leaf row with `infix` in `node`'s own view, the way a
/// local membership change would: a version far ahead of the group's.
void tombstone_locally(const SyncNode& node, AddrComponent infix) {
  auto& view = const_cast<MembershipView&>(node.view());
  DepthView& leaf = view.view(2);
  const std::size_t i = leaf.find_index(infix);
  ASSERT_NE(i, DepthView::npos);
  RowBatch batch(view.interns());
  ViewRow& tomb = batch.append(2, leaf, i);
  tomb.alive = false;
  tomb.version += 1000;
  ASSERT_TRUE(leaf.upsert(tomb, batch));
}

TEST(Piggyback, GossipCarriesRows) {
  auto s = make_stack(sim_sec(100), /*piggyback=*/true);
  // Intercept a gossip message and verify rows ride along.
  bool saw_piggyback = false;
  s.runtime->network().set_transcoder([&](const MessagePtr& msg) {
    if (const auto* gossip = dynamic_cast<const GossipMsg*>(msg.get())) {
      if (gossip->has_piggyback()) saw_piggyback = true;
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
  tombstone_locally(*s.sync_nodes[0], 2);

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
      if (gossip->has_piggyback()) saw_piggyback = true;
    }
    return msg;
  });
  s.pm_nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  s.runtime->run_for(sim_sec(5));
  EXPECT_FALSE(saw_piggyback);
}

TEST(Piggyback, TargetsWithOneBatchShareOneMessage) {
  auto s = make_stack(sim_sec(100), /*piggyback=*/true);
  // Each absorbed batch is scoped to its sender-receiver pair: its rows
  // reach exactly depth min(shared prefix + 1, d), so a shared message
  // never hands a target rows scoped for another.
  const std::size_t d = 2;  // make_stack's tree depth
  std::size_t absorbed = 0;
  for (std::size_t i = 0; i < s.pm_nodes.size(); ++i) {
    SyncNode* sync = s.sync_nodes[i].get();
    const Address self = s.members[i].address;
    s.pm_nodes[i]->set_piggyback(
        [sync](AddrId target) { return sync->rows_to_share(target); },
        [&absorbed, sync, self, d](const AddrRef& sender,
                                   const RowBatch& rows) {
          std::size_t deepest = 0;
          for (const auto& dr : rows)
            deepest = std::max<std::size_t>(deepest, dr.depth);
          const std::size_t shared =
              self.common_prefix_length(sender.address());
          EXPECT_EQ(deepest, std::min(shared + 1, d));
          ++absorbed;
          sync->absorb_rows(sender, rows);
        });
  }
  std::size_t payloads = 0;
  s.runtime->network().set_transcoder([&](const MessagePtr& msg) {
    if (const auto* gossip = dynamic_cast<const GossipMsg*>(msg.get())) {
      ++payloads;
      if (gossip->has_piggyback()) {
        EXPECT_NE(gossip->sender.interns, nullptr);
        EXPECT_NE(gossip->sender.id, kNoAddr);
      }
    }
    return msg;
  });
  s.pm_nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  s.runtime->run_for(sim_sec(5));
  std::uint64_t sent = 0;
  for (const auto& n : s.pm_nodes) sent += n->stats().sent;
  EXPECT_GT(absorbed, 0U);
  // With no loss and no filter every message is transcoded once, so one
  // payload per target would make the two counts equal.
  EXPECT_LT(payloads, sent);
}

/// Field-by-field equality of two in-memory batches of one runtime.
bool same_rows(const RowBatch& a, const RowBatch& b) {
  if (a.interns != b.interns || a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const DepthRow& x = a.rows[i];
    const DepthRow& y = b.rows[i];
    if (x.depth != y.depth || x.row.infix != y.row.infix ||
        x.row.version != y.row.version ||
        x.row.process_count != y.row.process_count ||
        x.row.alive != y.row.alive || x.row.interests != y.row.interests ||
        !std::ranges::equal(a.delegates(x.row), b.delegates(y.row)))
      return false;
  }
  return true;
}

/// Every row of `view` at depths 1..limit, as a fresh batch.
RowBatch rows_up_to(const MembershipView& view, std::size_t limit) {
  RowBatch out(view.interns());
  for (std::size_t depth = 1; depth <= limit; ++depth)
    for (std::size_t i = 0; i < view.view(depth).size(); ++i)
      out.append(static_cast<std::uint32_t>(depth), view.view(depth), i);
  return out;
}

TEST(Piggyback, TargetsAtOneDepthLimitShareOneBatch) {
  auto s = make_stack(sim_sec(100), /*piggyback=*/true);
  SyncNode& sync = *s.sync_nodes[0];  // 0.0
  const auto id = [&](const char* a) {
    return s.interns->addrs.intern(Address::parse(a));
  };
  // 0.1 and 0.2 share 0.0's leaf subgroup (limit 2); 1.0 and 2.1 share
  // only the root (limit 1).
  auto leaf = sync.rows_to_share(id("0.1"));
  EXPECT_EQ(sync.rows_to_share(id("0.2")), leaf);
  auto root = sync.rows_to_share(id("1.0"));
  EXPECT_EQ(sync.rows_to_share(id("2.1")), root);
  EXPECT_NE(root, leaf);
  EXPECT_TRUE(same_rows(*leaf, rows_up_to(sync.view(), 2)));
  EXPECT_TRUE(same_rows(*root, rows_up_to(sync.view(), 1)));

  // A leaf-table change renews the leaf-limit batch only: the root-limit
  // batch covers no mutated table.
  tombstone_locally(sync, 2);
  const auto renewed = sync.rows_to_share(id("0.1"));
  EXPECT_NE(renewed, leaf);
  EXPECT_EQ(sync.rows_to_share(id("0.2")), renewed);
  EXPECT_TRUE(same_rows(*renewed, rows_up_to(sync.view(), 2)));
  EXPECT_FALSE(same_rows(*renewed, *leaf));
  EXPECT_EQ(sync.rows_to_share(id("1.0")), root);

  // The cache holds its batches weakly: once the last holder lets go, the
  // batch is gone.
  const std::weak_ptr<const RowBatch> watch_root = root;
  const std::weak_ptr<const RowBatch> watch_leaf = leaf;
  root.reset();
  leaf.reset();
  EXPECT_TRUE(watch_root.expired());
  EXPECT_TRUE(watch_leaf.expired());
  EXPECT_TRUE(same_rows(*sync.rows_to_share(id("1.0")),
                        rows_up_to(sync.view(), 1)));
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
