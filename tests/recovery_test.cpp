// Tests for the optional digest-recovery layer (PmcastConfig::recovery_rounds)
// — pbcast-style event-digest anti-entropy on the leaf subgroups.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "cluster_helpers.hpp"

namespace pmc {
namespace {

using testing::default_config;
using testing::make_cluster;

PmcastConfig recovery_config(std::size_t rounds) {
  PmcastConfig config = testing::default_config();
  config.recovery_rounds = rounds;
  return config;
}

TEST(Recovery, RepairsLossInducedMisses) {
  // Aggregate across seeds: under 30% loss the recovering configuration
  // must deliver at least as much as the plain one, typically more.
  std::size_t plain_delivered = 0, recovering_delivered = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (const bool recover : {false, true}) {
      PmcastConfig config = recovery_config(recover ? 5 : 0);
      config.fanout = 2;
      config.env.loss = 0.30;
      auto c = make_cluster(4, 2, 2, 1.0, config, /*loss=*/0.30, 50 + seed);
      const Event e = make_event_at(0, seed, 0.5);
      c.nodes[0]->pmcast(e);
      c.runtime->run_until_idle();
      std::size_t delivered = 0;
      for (const auto& n : c.nodes)
        if (n->has_delivered(e.id())) ++delivered;
      (recover ? recovering_delivered : plain_delivered) += delivered;
    }
  }
  EXPECT_GE(recovering_delivered, plain_delivered);
}

TEST(Recovery, RecoveriesActuallyHappenUnderLoss) {
  PmcastConfig config = recovery_config(6);
  config.env.loss = 0.4;
  std::uint64_t recoveries = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto c = make_cluster(4, 2, 2, 1.0, config, 0.4, 60 + seed);
    c.nodes[0]->pmcast(make_event_at(0, seed, 0.5));
    c.runtime->run_until_idle();
    for (const auto& n : c.nodes) recoveries += n->gossip_stats().recoveries;
  }
  EXPECT_GT(recoveries, 0u);
}

TEST(Recovery, ExactlyOnceWhenPayloadsAreDuplicated) {
  // Digest recovery under the duplication and reorder injectors: every
  // duplicated gossip, request or payload must end in the seen-set, never
  // in a second delivery or a second `received`.
  PmcastConfig config = recovery_config(6);
  config.env.loss = 0.4;
  std::uint64_t recoveries = 0, duplicated = 0, suppressed = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto c = make_cluster(4, 2, 2, 1.0, config, 0.4, 60 + seed);
    c.runtime->network().set_duplication(0.6);
    c.runtime->network().set_reorder(0.5, sim_ms(30));
    // Every callback is counted: the delivered set would mask a repeat.
    std::map<std::pair<ProcessId, EventId>, int> deliveries;
    for (auto& node : c.nodes)
      node->set_deliver_handler(
          [&deliveries, pid = node->id()](const Event& e) {
            ++deliveries[{pid, e.id()}];
          });
    c.nodes[0]->pmcast(make_event_at(0, seed, 0.5));
    c.runtime->run_until_idle();

    ASSERT_FALSE(deliveries.empty());
    for (const auto& [key, n] : deliveries)
      EXPECT_EQ(n, 1) << "process " << key.first << " seed " << seed;
    for (const auto& n : c.nodes) {
      EXPECT_LE(n->stats().received, 1u) << n->address().to_string();
      recoveries += n->gossip_stats().recoveries;
      suppressed += n->stats().dup_suppressed;
    }
    duplicated += c.runtime->network().counters().duplicated;
  }
  EXPECT_GT(recoveries, 0u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(suppressed, 0u);
}

TEST(Recovery, UninterestedNonDelegatesStillUntouched) {
  // Digests are pre-filtered against the target's interests, so the pmcast
  // guarantee survives: uninterested non-delegates stay untouched.
  PmcastConfig config = recovery_config(5);
  auto c = make_cluster(4, 3, 2, 0.4, config, 0.1, 61);
  const Event e = make_event_at(1, 0, 0.3);
  c.nodes[7]->pmcast(e);
  c.runtime->run_until_idle();
  for (const auto& node : c.nodes) {
    if (node->id() == 7 || node->interested_in(e)) continue;
    if (!c.is_delegate(node->address())) {
      EXPECT_FALSE(node->has_received(e.id()))
          << node->address().to_string();
    }
  }
}

TEST(Recovery, QuiescesAfterBoundedDigestRounds) {
  PmcastConfig config = recovery_config(4);
  auto c = make_cluster(3, 2, 2, 1.0, config, 0.0, 62);
  c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  c.runtime->run_until_idle();
  EXPECT_TRUE(c.runtime->scheduler().empty());
}

TEST(Recovery, DisabledMeansNoDigests) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config(), 0.0, 63);
  c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  c.runtime->run_until_idle();
  for (const auto& n : c.nodes) {
    EXPECT_EQ(n->gossip_stats().digests_sent, 0u);
    EXPECT_EQ(n->gossip_stats().recoveries, 0u);
  }
}

TEST(Recovery, DigestTrafficBounded) {
  // Each node sends at most F digests per period for recovery_rounds
  // periods per retained event batch.
  PmcastConfig config = recovery_config(3);
  config.fanout = 2;
  auto c = make_cluster(3, 2, 2, 1.0, config, 0.0, 64);
  c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  c.runtime->run_until_idle();
  for (const auto& n : c.nodes)
    EXPECT_LE(n->gossip_stats().digests_sent, 2u * 3u + 2u);
}

TEST(Recovery, RecoveredEventServesFurtherRequests) {
  // A process that recovered an event retains it, so a second-degree miss
  // can be repaired through it (transitive recovery).
  PmcastConfig config = recovery_config(8);
  config.fanout = 2;
  // Heavy loss so several processes need recovery chains.
  std::size_t delivered_total = 0, node_count = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto c = make_cluster(4, 2, 3, 1.0, config, 0.45, 70 + seed);
    const Event e = make_event_at(0, seed, 0.5);
    c.nodes[0]->pmcast(e);
    c.runtime->run_until_idle();
    node_count += c.nodes.size();
    for (const auto& n : c.nodes)
      if (n->has_delivered(e.id())) ++delivered_total;
  }
  // With 45% loss and F=2 the plain algorithm misses a sizable fraction;
  // long recovery chains should push delivery close to total.
  EXPECT_GE(delivered_total, node_count * 9 / 10);
}

}  // namespace
}  // namespace pmc
