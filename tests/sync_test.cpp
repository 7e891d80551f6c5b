#include "membership/sync.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster_helpers.hpp"
#include "harness/workload.hpp"
#include "wire/messages.hpp"

namespace pmc {
namespace {

struct SyncCluster {
  std::vector<Member> members;
  std::unique_ptr<Interns> interns = std::make_unique<Interns>();
  std::unique_ptr<GroupTree> tree;
  std::unique_ptr<Runtime> runtime;
  std::vector<ProcessId> pid_by_id;  ///< dense AddrId -> pid directory
  std::vector<std::unique_ptr<SyncNode>> nodes;
  SyncConfig config;

  void register_pid(const Address& a, ProcessId pid) {
    const AddrId id = interns->addrs.intern(a);
    if (pid_by_id.size() <= id) pid_by_id.resize(id + 1, kNoProcess);
    pid_by_id[id] = pid;
  }

  Directory directory_fn() const { return testing::lookup(pid_by_id); }

  /// The depth-`depth` row of `node`'s view with infix `c`; npos if absent.
  static std::size_t row_of(const SyncNode& node, std::size_t depth,
                            AddrComponent c) {
    return node.view().view(depth).find_index(c);
  }
};

/// Founders of a regular a^d group, each present with probability `fill`.
SyncCluster make_sync_cluster(std::size_t a, std::size_t d, std::size_t r,
                              std::uint64_t seed = 1, double fill = 1.0) {
  SyncCluster c;
  Rng rng(seed);
  const auto space =
      AddressSpace::regular(static_cast<AddrComponent>(a), d);
  c.members = uniform_interest_members(space, 0.5, rng);
  if (fill < 1.0)
    std::erase_if(c.members,
                  [&](const Member&) { return !rng.bernoulli(fill); });
  c.config.tree.depth = d;
  c.config.tree.redundancy = r;
  c.config.gossip_period = sim_ms(50);
  c.config.gossip_fanout = 3;
  c.config.suspicion_timeout = sim_ms(600);
  c.tree = std::make_unique<GroupTree>(c.config.tree, c.members, *c.interns);
  c.runtime = std::make_unique<Runtime>(NetworkConfig{}, seed ^ 0x1234);
  for (std::size_t i = 0; i < c.members.size(); ++i)
    c.register_pid(c.members[i].address, static_cast<ProcessId>(i));
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    c.nodes.push_back(std::make_unique<SyncNode>(
        *c.runtime, static_cast<ProcessId>(i), c.config,
        c.tree->materialize_view(c.members[i].address),
        c.members[i].subscription, c.directory_fn()));
  }
  return c;
}

TEST(SyncNode, FoundersStartJoined) {
  auto c = make_sync_cluster(3, 2, 2);
  for (const auto& n : c.nodes) EXPECT_TRUE(n->joined());
}

TEST(SyncNode, ConstructionRequiresADirectory) {
  auto c = make_sync_cluster(3, 2, 2);
  const Member& m = c.members[0];
  EXPECT_THROW(std::make_unique<SyncNode>(
                   *c.runtime, ProcessId{99}, c.config,
                   c.tree->materialize_view(m.address), m.subscription,
                   Directory{}),
               std::logic_error);
  EXPECT_THROW(std::make_unique<SyncNode>(*c.runtime, ProcessId{99}, c.config,
                                          m.address, m.subscription,
                                          /*contact=*/0, *c.interns,
                                          Directory{}),
               std::logic_error);
}

TEST(SyncNode, FoundersFromAGroupTreeRecompactNothing) {
  // GroupTree writes every upper row with compact_subgroup, the rule a
  // SyncNode recompacts its own rows with. So the founders' first
  // recompaction (the first period, before any message lands) finds each
  // row it publishes current and changes no table.
  struct Shape {
    std::size_t a, d, r;
    double fill;
  };
  for (const Shape& s : {Shape{3, 2, 2, 1.0}, Shape{4, 3, 2, 0.6},
                         Shape{3, 4, 3, 0.7}, Shape{5, 3, 1, 1.0}}) {
    auto c = make_sync_cluster(s.a, s.d, s.r, /*seed=*/s.a + s.d, s.fill);
    const auto mutations = [&c] {
      std::vector<std::uint64_t> out;
      for (const auto& n : c.nodes)
        for (std::size_t depth = 1; depth <= c.config.tree.depth; ++depth)
          out.push_back(n->view().view(depth).mutations());
      return out;
    };
    const auto before = mutations();
    c.runtime->run_until(c.config.gossip_period);
    EXPECT_EQ(mutations(), before) << s.a << "^" << s.d << " R=" << s.r;
    for (const auto& n : c.nodes)  // every founder ran its period
      EXPECT_GT(n->stats().digests_sent, 0u);
  }
}

TEST(SyncNode, StableGroupViewsStayConsistent) {
  auto c = make_sync_cluster(3, 2, 2);
  c.runtime->run_for(sim_ms(500));
  // No churn: every node still knows all 3 subtrees and its 3 neighbors.
  for (const auto& n : c.nodes) {
    EXPECT_EQ(n->view().view(1).live_count(), 3u);
    EXPECT_EQ(n->view().view(2).live_count(), 3u);
  }
}

TEST(SyncNode, JoinerIsAdoptedByNeighbors) {
  auto c = make_sync_cluster(3, 2, 2);
  // 2.2 exists; make a cluster without it, then join it back.
  const Address newbie = Address::parse("2.2");
  const ProcessId newbie_pid = static_cast<ProcessId>(c.nodes.size());
  // Remove from the founding views by rebuilding a smaller cluster:
  SyncCluster small;
  small.config = c.config;
  Rng rng(3);
  const auto space = AddressSpace::regular(3, 2);
  for (const auto& m : uniform_interest_members(space, 0.5, rng)) {
    if (m.address == newbie) continue;
    small.members.push_back(m);
  }
  small.tree = std::make_unique<GroupTree>(small.config.tree, small.members,
                                           *small.interns);
  small.runtime = std::make_unique<Runtime>(NetworkConfig{}, 77);
  for (std::size_t i = 0; i < small.members.size(); ++i)
    small.register_pid(small.members[i].address,
                       static_cast<ProcessId>(i));
  small.register_pid(newbie, newbie_pid);
  for (std::size_t i = 0; i < small.members.size(); ++i) {
    small.nodes.push_back(std::make_unique<SyncNode>(
        *small.runtime, static_cast<ProcessId>(i), small.config,
        small.tree->materialize_view(small.members[i].address),
        small.members[i].subscription, small.directory_fn()));
  }

  // Join via a *distant* contact (0.0) so the request must be routed.
  SyncNode joiner(*small.runtime, newbie_pid, small.config, newbie,
                  Subscription::parse("u < 0.3"), /*contact=*/0,
                  *small.interns, small.directory_fn());

  small.runtime->run_for(sim_ms(1500));

  EXPECT_TRUE(joiner.joined());
  // The joiner knows its neighborhood...
  EXPECT_GE(joiner.view().view(2).live_count(), 2u);
  EXPECT_GE(joiner.view().view(1).live_count(), 3u);
  // ...and its immediate neighbors know the joiner.
  std::size_t aware = 0;
  for (const auto& n : small.nodes) {
    if (n->address().component(0) != 2) continue;
    const auto& leaf = n->view().view(2);
    const std::size_t i = SyncCluster::row_of(*n, 2, 2);
    if (i != DepthView::npos && leaf.alive(i)) ++aware;
  }
  EXPECT_GE(aware, 2u);
}

TEST(SyncNode, LeaveTombstonesPropagate) {
  auto c = make_sync_cluster(3, 2, 2, /*seed=*/5);
  c.runtime->run_for(sim_ms(200));
  const Address leaver = c.nodes[4]->address();  // 1.1
  c.nodes[4]->leave();
  c.runtime->run_for(sim_ms(1500));
  std::size_t tombstoned = 0;
  for (const auto& n : c.nodes) {
    if (!n->alive()) continue;
    if (n->address().component(0) != leaver.component(0)) continue;
    const auto& leaf = n->view().view(2);
    const std::size_t i = SyncCluster::row_of(*n, 2, leaver.component(1));
    if (i != DepthView::npos && !leaf.alive(i)) ++tombstoned;
  }
  EXPECT_GE(tombstoned, 2u);  // both surviving neighbors of 1.x
}

TEST(SyncNode, CrashedNeighborSuspectedAfterTimeout) {
  auto c = make_sync_cluster(3, 2, 2, /*seed=*/9);
  c.runtime->run_for(sim_ms(200));
  const Address victim = c.nodes[1]->address();  // 0.1
  c.nodes[1]->crash();
  c.runtime->run_for(sim_ms(3000));
  std::size_t suspected = 0;
  for (const auto& n : c.nodes) {
    if (!n->alive()) continue;
    if (n->address().component(0) != victim.component(0)) continue;
    const auto& leaf = n->view().view(2);
    const std::size_t i = SyncCluster::row_of(*n, 2, victim.component(1));
    if (i != DepthView::npos && !leaf.alive(i)) ++suspected;
  }
  EXPECT_GE(suspected, 2u);
}

TEST(SyncNode, DelegateRecompactionRefreshesCounts) {
  // After a member of subgroup 0 crashes and is suspected, the delegates of
  // subgroup 0 republish their depth-1 row with a reduced process count,
  // and anti-entropy carries it to other subtrees.
  auto c = make_sync_cluster(3, 2, 2, /*seed=*/13);
  c.runtime->run_for(sim_ms(200));
  c.nodes[2]->crash();  // 0.2 — not a delegate (R=2 keeps 0.0 and 0.1)
  c.runtime->run_for(sim_ms(4000));
  std::size_t updated = 0;
  for (const auto& n : c.nodes) {
    if (!n->alive()) continue;
    if (n->address().component(0) == 0) continue;  // other subtrees only
    const auto& root = n->view().view(1);
    const std::size_t i = SyncCluster::row_of(*n, 1, 0);
    if (i != DepthView::npos && root.alive(i) && root.process_count(i) == 2)
      ++updated;
  }
  EXPECT_GE(updated, 3u);
}

TEST(SyncNode, StaleSelfTombstoneIsRebutted) {
  // A tombstone of a node's own leaf row is rebutted however old it is:
  // the rebuttal check runs ahead of the version comparison that drops
  // every other stale row. It recognises the node by id in an in-memory
  // batch and by address in a decoded one.
  for (const bool codec : {false, true}) {
    auto c = make_sync_cluster(3, 2, 2, /*seed=*/17);
    const SyncNode& target = *c.nodes[4];  // 1.1
    const auto& leaf = target.view().view(2);
    const std::size_t i =
        SyncCluster::row_of(target, 2, target.address().component(1));
    ASSERT_NE(i, DepthView::npos);
    const std::uint64_t held = leaf.version(i);
    ASSERT_GT(held, 0u);
    auto update = std::make_shared<MembershipUpdateMsg>();
    // 1.0, same leaf subgroup
    update->sender = AddrRef(*c.interns, c.nodes[3]->view().self_id());
    update->rows = RowBatch(*c.interns);
    ViewRow& tomb = update->rows.append(2, leaf, i);
    tomb.alive = false;
    tomb.version = held - 1;
    const MessagePtr sent =
        codec ? wire::decode_message(wire::encode_message(*update)) : update;
    c.runtime->network().send(3, 4, sent);
    c.runtime->run_for(sim_ms(1));

    EXPECT_EQ(target.stats().rebuttals, 1u) << codec;
    const std::size_t j =
        SyncCluster::row_of(target, 2, target.address().component(1));
    ASSERT_NE(j, DepthView::npos);
    EXPECT_TRUE(leaf.alive(j)) << codec;
    EXPECT_GT(leaf.version(j), held) << codec;
  }
}

// ---------------------------------------------------------------------------
// Digest replies
// ---------------------------------------------------------------------------

struct ReplyRow {
  std::uint32_t depth = 0;
  AddrComponent infix = 0;
  std::uint64_t version = 0;
  bool operator==(const ReplyRow&) const = default;
};

/// The rows node `to` answers `digest` from node `from` with, read off the
/// network as the reply is sent. With `codec`, every message (the digest
/// and the reply) crosses the wire codec first.
std::vector<ReplyRow> digest_reply(SyncCluster& c, ProcessId from,
                                   ProcessId to,
                                   const MembershipDigestMsg& digest,
                                   bool codec) {
  std::vector<ReplyRow> rows;
  std::size_t replies = 0;
  const Address responder = c.nodes[to]->address();
  c.runtime->network().set_transcoder([&](const MessagePtr& msg) {
    MessagePtr out =
        codec ? wire::decode_message(wire::encode_message(*msg)) : msg;
    if (out->kind == MsgKind::MembershipUpdate) {
      const auto& update = static_cast<const MembershipUpdateMsg&>(*out);
      if (update.sender.address() == responder) {
        ++replies;
        for (const auto& dr : update.rows)
          rows.push_back(ReplyRow{dr.depth, dr.row.infix, dr.row.version});
      }
    }
    return out;
  });
  c.runtime->network().send(from, to,
                            std::make_shared<MembershipDigestMsg>(digest));
  c.runtime->run_for(sim_ms(1));
  c.runtime->network().set_transcoder(nullptr);
  EXPECT_EQ(replies, 1u);
  return rows;
}

TEST(SyncNode, DigestReplyTakesTheFirstEntryPerKeyInAnyOrder) {
  // A digest out of (depth, infix) order, with one key listed twice: first
  // with an older version, then with a newer one. The reply holds exactly
  // the rows a linear search of the digest picks — the first entry for a
  // key wins — in memory and across the codec alike.
  auto c = make_sync_cluster(3, 2, 2, /*seed=*/23);
  const SyncNode& target = *c.nodes[4];  // 1.1
  const SyncNode& gossiper = *c.nodes[3];  // 1.0: both depths are shared
  const auto version = [&](std::size_t depth, AddrComponent infix) {
    const auto& dv = target.view().view(depth);
    const std::size_t i = dv.find_index(infix);
    EXPECT_NE(i, DepthView::npos);
    return dv.version(i);
  };
  ASSERT_GE(version(1, 2), 1u);

  MembershipDigestMsg digest;
  digest.sender = AddrRef(*c.interns, gossiper.view().self_id());
  digest.sender_pid = 3;
  digest.digests = {
      {2, 1, version(2, 1)},        // equal: not sent
      {1, 2, version(1, 2) - 1},    // older, and first for its key: sent
      {1, 0, version(1, 0)},        // equal: not sent
      {1, 2, version(1, 2) + 5},    // same key again: ignored
      {2, 0, version(2, 0) + 100},  // the gossiper is ahead: not sent
  };  // (1, 1) and (2, 2) are missing: sent

  // The linear search the walk must agree with, row by row in view order.
  std::vector<ReplyRow> expected;
  for (std::uint32_t depth = 1; depth <= 2; ++depth) {
    const auto& dv = target.view().view(depth);
    for (std::size_t i = 0; i < dv.size(); ++i) {
      const auto it = std::find_if(
          digest.digests.begin(), digest.digests.end(),
          [&](const RowDigest& d) {
            return d.depth == depth && d.infix == dv.infix(i);
          });
      if (it == digest.digests.end() || it->version < dv.version(i))
        expected.push_back(ReplyRow{depth, dv.infix(i), dv.version(i)});
    }
  }
  const std::vector<ReplyRow> keys = {
      {1, 1, version(1, 1)}, {1, 2, version(1, 2)}, {2, 2, version(2, 2)}};
  ASSERT_EQ(expected, keys);

  EXPECT_EQ(digest_reply(c, 3, 4, digest, /*codec=*/false), expected);
  EXPECT_EQ(digest_reply(c, 3, 4, digest, /*codec=*/true), expected);
}

// ---------------------------------------------------------------------------
// Contact table: only leaf neighbours are timed
// ---------------------------------------------------------------------------

/// Whether `to` answers a suspect query about `suspect` with "heard
/// recently", after `contact` sent it a digest (each message in memory, or
/// through the codec). The query comes from `querier`, a leaf neighbour.
bool heard_after_digest(SyncCluster& c, ProcessId contact, ProcessId to,
                        ProcessId querier, ProcessId suspect, bool codec) {
  std::size_t replies = 0;
  bool heard = false;
  c.runtime->network().set_transcoder([&](const MessagePtr& msg) {
    MessagePtr out =
        codec ? wire::decode_message(wire::encode_message(*msg)) : msg;
    if (out->kind == MsgKind::SuspectReply) {
      const auto& reply = static_cast<const SuspectReplyMsg&>(*out);
      if (reply.sender.address() == c.nodes[to]->address()) {
        ++replies;
        heard = reply.heard_recently;
      }
    }
    return out;
  });
  auto digest = std::make_shared<MembershipDigestMsg>();
  digest->sender = AddrRef(*c.interns, c.nodes[contact]->view().self_id());
  digest->sender_pid = contact;
  c.runtime->network().send(contact, to, digest);
  c.runtime->run_for(sim_ms(1));
  auto query = std::make_shared<SuspectQueryMsg>();
  query->sender = AddrRef(*c.interns, c.nodes[querier]->view().self_id());
  query->suspect = AddrRef(*c.interns, c.nodes[suspect]->view().self_id());
  c.runtime->network().send(querier, to, query);
  c.runtime->run_for(sim_ms(1));
  c.runtime->network().set_transcoder(nullptr);
  EXPECT_EQ(replies, 1u);
  return heard;
}

TEST(SyncNode, ContactsOutsideTheLeafSubgroupAreNotRecorded) {
  // Node 4 (1.1) hears a digest from 0.0, outside its leaf subgroup, and
  // one from 1.2, its leaf neighbour. Only the neighbour's lands in the
  // contact table that suspect queries are answered from — in memory and
  // through the codec alike. At t = 0 nothing else has been heard yet.
  for (const bool codec : {false, true}) {
    auto c = make_sync_cluster(3, 2, 2, /*seed=*/29);
    ASSERT_EQ(c.nodes[0]->address(), Address::parse("0.0"));
    ASSERT_EQ(c.nodes[5]->address(), Address::parse("1.2"));
    EXPECT_FALSE(heard_after_digest(c, 0, 4, 3, 0, codec)) << codec;
    EXPECT_TRUE(heard_after_digest(c, 5, 4, 3, 5, codec)) << codec;
  }
}

TEST(SyncNode, LeafNeighbourDigestsKeepItFromTimingOut) {
  // 1.2 (node 5) crashes at once. Digests naming it as sender keep arriving
  // at node 4 (1.1) every 100 ms, so node 4 never times it out; node 3
  // (1.0) hears nothing from it and tombstones it after the 600 ms
  // timeout.
  auto c = make_sync_cluster(3, 2, 2, /*seed=*/31);
  c.nodes[5]->crash();
  for (int tick = 0; tick < 20; ++tick) {
    auto digest = std::make_shared<MembershipDigestMsg>();
    digest->sender = AddrRef(*c.interns, c.nodes[5]->view().self_id());
    digest->sender_pid = 5;
    c.runtime->network().send(0, 4, digest);
    c.runtime->run_for(sim_ms(100));
  }
  EXPECT_EQ(c.nodes[4]->stats().tombstones, 0u);
  EXPECT_GE(c.nodes[3]->stats().tombstones, 1u);
}

TEST(SyncNode, MessagesCarryNoUpdatesWhenConverged) {
  auto c = make_sync_cluster(3, 2, 2, /*seed=*/21);
  c.runtime->run_for(sim_ms(400));
  const auto before = c.runtime->network().counters().sent;
  c.runtime->run_for(sim_ms(400));
  const auto after = c.runtime->network().counters().sent;
  // Converged steady state: only digests flow, roughly fanout per node per
  // period; replies should be rare. Allow 2x headroom.
  const double periods = 400.0 / 50.0;
  const double per_period = static_cast<double>(after - before) / periods;
  EXPECT_LE(per_period, static_cast<double>(c.nodes.size()) * 3 * 2);
}

// ---------------------------------------------------------------------------
// Join retry backoff (SyncConfig::join_backoff)
// ---------------------------------------------------------------------------

/// Times (sim µs) at which a lone joiner (re)sends its JoinRequest when
/// the contact never answers (pid 0 is registered nowhere, so every send
/// lands on dead_target). Sends are observed through the network's sent
/// counter, sampled on a 5 ms grid — fine enough to see the 50 ms period
/// ticks exactly.
std::vector<SimTime> join_send_times(bool backoff, SimTime horizon) {
  Interns interns;
  SyncConfig config;
  config.tree.depth = 2;
  config.tree.redundancy = 2;
  config.gossip_period = sim_ms(50);
  config.max_join_retries = 0;  // unbounded: observe the raw schedule
  config.join_backoff = backoff;
  Runtime rt(NetworkConfig{}, /*seed=*/901);
  SyncNode joiner(rt, /*pid=*/1, config, Address::parse("0.0"),
                  Subscription::parse("u < 0.5"), /*contact=*/0, interns,
                  [](AddrId) { return kNoProcess; });
  std::vector<SimTime> times;
  std::uint64_t seen = 0;
  for (SimTime t = 0; t <= horizon; t += sim_ms(5)) {
    rt.run_until(t);
    const auto sent = rt.network().counters().sent;
    if (sent > seen) {
      times.push_back(t);
      seen = sent;
    }
  }
  return times;
}

TEST(SyncNode, LegacyJoinRetryCadenceIsEveryPeriod) {
  const auto times = join_send_times(false, sim_ms(500));
  ASSERT_GE(times.size(), 5u);
  for (std::size_t i = 1; i < times.size(); ++i)
    EXPECT_EQ(times[i] - times[i - 1], sim_ms(50)) << i;
}

TEST(SyncNode, JoinBackoffScheduleIsPinned) {
  // The backed-off schedule is a deterministic function of (base seed,
  // pid, period): doubling waits capped at 8 periods, plus jitter from the
  // joiner's labeled stream, quantized up to the next period tick. Pinned
  // so a refactor that silently moves the jitter draws (or re-seeds the
  // stream) shows up here rather than in a flaky soak.
  const auto times = join_send_times(true, sim_ms(4000));
  const std::vector<SimTime> pinned = {0,       100000,  250000,  550000,
                                       1000000, 1550000, 2050000, 2600000,
                                       3100000, 3600000};
  EXPECT_EQ(times, pinned);

  // Structure, independent of the jitter values: the k-th wait is at
  // least period * min(2^k, 8) and at most 1.5x that plus one period of
  // tick quantization — and the whole schedule replays bit for bit.
  ASSERT_GE(times.size(), 4u);
  for (std::size_t k = 1; k < times.size(); ++k) {
    const SimTime gap = times[k] - times[k - 1];
    const SimTime base =
        sim_ms(50) * static_cast<SimTime>(
                         std::min<std::uint64_t>(std::uint64_t{1} << (k - 1),
                                                 8));
    EXPECT_GE(gap, base) << k;
    EXPECT_LE(gap, base + base / 2 + sim_ms(50)) << k;
  }
  EXPECT_EQ(join_send_times(true, sim_ms(4000)), times);
}

}  // namespace
}  // namespace pmc
