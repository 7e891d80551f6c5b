// Adversarial fault-injection layer: the network's duplication/reorder
// injectors and WAN latency models, the protocols' exactly-once guarantee
// under them, graceful degradation (capped stores shed deterministically),
// and the scenario engine's asymmetric/flapping partitions. Everything
// here is a fixed-seed deterministic run: the injectors draw from their
// own labeled sub-streams, so two identical runs must agree bit for bit.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "baselines/flooding.hpp"
#include "baselines/genuine.hpp"
#include "baselines/treecast.hpp"
#include "cluster_helpers.hpp"
#include "handler_box.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"

namespace pmc {
namespace {

using testing::Cluster;
using testing::default_config;
using testing::make_cluster;

// Per-(process, event) delivery tally — the exactly-once witness. The
// protocols' own `delivered_` sets would mask a double delivery (set
// insert is idempotent), so the handler counts every callback invocation.
struct DeliveryLog {
  std::map<std::pair<ProcessId, EventId>, int> counts;
  void record(ProcessId pid, const Event& e) {
    ++counts[{pid, e.id()}];
  }
  int max_per_target() const {
    int worst = 0;
    for (const auto& [key, n] : counts) worst = std::max(worst, n);
    return worst;
  }
};

// ---------------------------------------------------------------------------
// Exactly-once under duplication + reordering, per protocol
// ---------------------------------------------------------------------------

TEST(Adversarial, PmcastExactlyOnceUnderDuplicationAndReorder) {
  auto c = make_cluster(4, 2, 2, 0.6, default_config(), /*loss=*/0.0,
                        /*seed=*/5);
  c.runtime->network().set_duplication(0.6);
  c.runtime->network().set_reorder(0.5, sim_ms(30));

  DeliveryLog log;
  for (auto& node : c.nodes)
    node->set_deliver_handler([&log, pid = node->id()](const Event& e) {
      log.record(pid, e);
    });

  Rng rng(9);
  for (int k = 0; k < 5; ++k)
    c.nodes[static_cast<std::size_t>(k * 3) % c.nodes.size()]->pmcast(
        make_event_at(0, k, rng.next_double()));
  c.runtime->run_until_idle();

  ASSERT_FALSE(log.counts.empty());
  EXPECT_EQ(log.max_per_target(), 1)
      << "a process delivered the same event twice";
  // The injectors must actually have fired, and the duplicates must have
  // been absorbed by the seen-set (the audit counters say which).
  EXPECT_GT(c.runtime->network().counters().duplicated, 0u);
  EXPECT_GT(c.runtime->network().counters().reordered, 0u);
  std::uint64_t suppressed = 0;
  for (const auto& node : c.nodes) suppressed += node->stats().dup_suppressed;
  EXPECT_GT(suppressed, 0u);
}

TEST(Adversarial, FloodingExactlyOnceUnderDuplicationAndReorder) {
  Rng member_rng(7);
  const auto members = uniform_interest_members(
      AddressSpace::regular(30, 1), 0.5, member_rng);
  auto rt = std::make_unique<Runtime>(NetworkConfig{}, 3);
  rt->network().set_duplication(0.7);
  rt->network().set_reorder(0.5, sim_ms(20));
  auto peers = std::make_shared<std::vector<ProcessId>>();
  for (std::size_t i = 0; i < members.size(); ++i)
    peers->push_back(static_cast<ProcessId>(i));
  FloodingConfig config;
  config.fanout = 3;
  std::vector<std::unique_ptr<FloodingNode>> nodes;
  DeliveryLog log;
  for (std::size_t i = 0; i < members.size(); ++i) {
    nodes.push_back(std::make_unique<FloodingNode>(
        *rt, static_cast<ProcessId>(i), config, members[i].subscription,
        peers));
    nodes.back()->set_deliver_handler(
        [&log, pid = static_cast<ProcessId>(i)](const Event& e) {
          log.record(pid, e);
        });
  }

  nodes[0]->broadcast(make_event_at(0, 0, 0.4));
  nodes[5]->broadcast(make_event_at(5, 1, 0.8));
  rt->run_until_idle();

  ASSERT_FALSE(log.counts.empty());
  EXPECT_EQ(log.max_per_target(), 1);
  EXPECT_GT(rt->network().counters().duplicated, 0u);
  std::uint64_t suppressed = 0;
  for (const auto& n : nodes) suppressed += n->stats().dup_suppressed;
  EXPECT_GT(suppressed, 0u);
}

TEST(Adversarial, GenuineExactlyOnceUnderDuplicationAndReorder) {
  // Same shape as the flooding test, with every process's view holding
  // the whole group: gossip then only reaches interested members.
  Rng member_rng(7);
  const auto members = uniform_interest_members(
      AddressSpace::regular(30, 1), 0.5, member_rng);
  auto rt = std::make_unique<Runtime>(NetworkConfig{}, 3);
  rt->network().set_duplication(0.7);
  rt->network().set_reorder(0.5, sim_ms(20));
  GenuineConfig config;
  config.fanout = 3;
  config.group_size_hint = members.size();
  std::vector<std::unique_ptr<GenuineNode>> nodes;
  DeliveryLog log;
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::vector<GenuineNode::Peer> view;
    for (std::size_t p = 0; p < members.size(); ++p) {
      if (p != i)
        view.push_back(GenuineNode::Peer{static_cast<ProcessId>(p),
                                         members[p].subscription});
    }
    nodes.push_back(std::make_unique<GenuineNode>(
        *rt, static_cast<ProcessId>(i), config, members[i].subscription,
        std::move(view)));
    nodes.back()->set_deliver_handler(
        [&log, pid = static_cast<ProcessId>(i)](const Event& e) {
          log.record(pid, e);
        });
  }

  nodes[0]->multicast(make_event_at(0, 0, 0.4));
  nodes[5]->multicast(make_event_at(5, 1, 0.8));
  rt->run_until_idle();

  ASSERT_FALSE(log.counts.empty());
  EXPECT_EQ(log.max_per_target(), 1);
  EXPECT_GT(rt->network().counters().duplicated, 0u);
  std::uint64_t suppressed = 0;
  for (const auto& n : nodes) suppressed += n->stats().dup_suppressed;
  EXPECT_GT(suppressed, 0u);
}

TEST(Adversarial, TreecastExactlyOnceUnderDuplicationAndReorder) {
  // Treecast sends each event down disjoint delegate chains, so without
  // the injector no process ever sees a duplicate; with it, every clone
  // must die in the seen-set.
  Rng member_rng(11);
  const auto members = uniform_interest_members(
      AddressSpace::regular(3, 2), 0.7, member_rng);
  std::unique_ptr<Interns> interns = std::make_unique<Interns>();
  TreeConfig tree_config;
  tree_config.depth = 2;
  tree_config.redundancy = 2;
  auto tree = std::make_unique<GroupTree>(tree_config, members, *interns);
  auto rt = std::make_unique<Runtime>(NetworkConfig{}, 13);
  rt->network().set_duplication(0.8);
  rt->network().set_reorder(0.5, sim_ms(10));
  const auto directory = testing::pid_table(*interns, members);
  TreecastConfig config;
  config.tree = tree_config;
  std::vector<std::unique_ptr<TreecastNode>> nodes;
  DeliveryLog log;
  for (std::size_t i = 0; i < members.size(); ++i) {
    nodes.push_back(std::make_unique<TreecastNode>(
        *rt, static_cast<ProcessId>(i), config, members[i].address,
        members[i].subscription, tree->tables_for(members[i].address),
        testing::lookup(directory)));
    nodes.back()->set_deliver_handler(
        [&log, pid = static_cast<ProcessId>(i)](const Event& e) {
          log.record(pid, e);
        });
  }

  nodes[0]->multicast(make_event_at(0, 0, 0.5));
  nodes[3]->multicast(make_event_at(3, 1, 0.2));
  rt->run_until_idle();

  ASSERT_FALSE(log.counts.empty());
  EXPECT_EQ(log.max_per_target(), 1);
  EXPECT_GT(rt->network().counters().duplicated, 0u);
  std::uint64_t suppressed = 0;
  for (const auto& n : nodes) suppressed += n->stats().dup_suppressed;
  EXPECT_GT(suppressed, 0u);
}

// ---------------------------------------------------------------------------
// Injector determinism and latency models
// ---------------------------------------------------------------------------

TEST(Adversarial, InjectorsReplayBitForBit) {
  // The duplication/reorder/latency draws come from labeled sub-streams of
  // the per-message seed, so two identical runs agree on every counter.
  const auto run = [] {
    auto c = make_cluster(4, 2, 2, 0.5, default_config(), 0.02, 21);
    c.runtime->network().set_duplication(0.4);
    c.runtime->network().set_reorder(0.3, sim_ms(25));
    c.runtime->network().set_latency(
        LogNormalLatency{sim_ms(2), 0.8, sim_us(100), sim_ms(40)});
    Rng rng(33);
    for (int k = 0; k < 4; ++k)
      c.nodes[static_cast<std::size_t>(k)]->pmcast(
          make_event_at(0, k, rng.next_double()));
    c.runtime->run_until_idle();
    return c.runtime->network().counters();
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.sent, second.sent);
  EXPECT_EQ(first.delivered, second.delivered);
  EXPECT_EQ(first.lost, second.lost);
  EXPECT_EQ(first.duplicated, second.duplicated);
  EXPECT_EQ(first.reordered, second.reordered);
  EXPECT_GT(first.duplicated, 0u);
  EXPECT_GT(first.reordered, 0u);
}

struct LatencyProbe {
  Scheduler sched;
  NetworkConfig config;
  testing::HandlerBox handlers;
  LatencyProbe() {
    config.latency_min = sim_us(100);
    config.latency_max = sim_us(500);
  }
};

TEST(Adversarial, LognormalModelRespectsFloorAndCap) {
  LatencyProbe probe;
  Network net(probe.sched, probe.config, Rng(55));
  const SimTime floor = sim_ms(1), cap = sim_ms(4);
  net.set_latency(LogNormalLatency{sim_ms(2), 1.5, floor, cap});
  SimTime arrival = 0;
  probe.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) {
    arrival = probe.sched.now();
  });
  for (int i = 0; i < 200; ++i) {
    const SimTime sent_at = probe.sched.now();
    net.send(0, 1, std::make_shared<MessageBase>());
    probe.sched.run();
    const SimTime latency = arrival - sent_at;
    ASSERT_GE(latency, floor);
    ASSERT_LE(latency, cap);
  }
}

TEST(Adversarial, LognormalTailSaturatesAtCap) {
  // A median near 2^58 us with sigma 4 puts about a fifth of the samples
  // past 2^63, where rounding to sim-time overflows; those must land at
  // the cap, never at or below the floor.
  LatencyProbe probe;
  Network net(probe.sched, probe.config, Rng(5));
  const SimTime median = std::numeric_limits<SimTime>::max() / 32;
  const SimTime cap = 16 * median;
  net.set_latency(LogNormalLatency{median, 4.0, 0, cap});
  std::vector<SimTime> arrivals;
  probe.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) {
    arrivals.push_back(probe.sched.now());
  });
  for (int i = 0; i < 40; ++i)
    net.send(0, 1, std::make_shared<MessageBase>());
  probe.sched.run();
  ASSERT_EQ(arrivals.size(), 40u);
  for (const SimTime at : arrivals) {
    EXPECT_GT(at, 0);
    EXPECT_LE(at, cap);
  }
}

TEST(Adversarial, ClearingTheModelRestoresUniformLatency) {
  LatencyProbe probe;
  Network net(probe.sched, probe.config, Rng(57));
  net.set_latency(LogNormalLatency{sim_ms(50), 0.1, 0, sim_ms(100)});
  net.set_latency(std::nullopt);
  SimTime arrival = 0;
  probe.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) {
    arrival = probe.sched.now();
  });
  const SimTime sent_at = probe.sched.now();
  net.send(0, 1, std::make_shared<MessageBase>());
  probe.sched.run();
  EXPECT_LE(arrival - sent_at, probe.config.latency_max);
}

// ---------------------------------------------------------------------------
// Graceful degradation: capped stores shed deterministically
// ---------------------------------------------------------------------------

TEST(Adversarial, RetainedStoreShedsOldestWhenCapped) {
  PmcastConfig config = default_config();
  config.recovery_rounds = 6;  // retention is off (and the cap moot) at 0
  config.max_retained = 3;
  auto c = make_cluster(4, 2, 2, 1.0, config, 0.0, 6);
  Rng rng(17);
  for (int k = 0; k < 10; ++k)
    c.nodes[0]->pmcast(make_event_at(0, k, rng.next_double()));
  c.runtime->run_until_idle();

  std::uint64_t shed = 0;
  for (const auto& node : c.nodes) shed += node->gossip_stats().shed_events;
  EXPECT_GT(shed, 0u) << "the retained-event cap never bit";
  // Degradation is graceful: recent events are still delivered even
  // though old retained copies were evicted.
  const Event last = make_event_at(0, 10, 0.5);
  c.nodes[0]->pmcast(last);
  c.runtime->run_until_idle();
  std::size_t delivered = 0;
  for (const auto& node : c.nodes)
    if (node->has_delivered(last.id())) ++delivered;
  EXPECT_GE(delivered, c.nodes.size() / 2);
}

TEST(Adversarial, SheddingIsDeterministic) {
  const auto run = [] {
    PmcastConfig config = default_config();
    config.max_retained = 2;
    config.max_buffered = 8;
    auto c = make_cluster(4, 2, 2, 1.0, config, 0.05, 23);
    Rng rng(29);
    for (int k = 0; k < 12; ++k)
      c.nodes[static_cast<std::size_t>(k) % c.nodes.size()]->pmcast(
          make_event_at(0, k, rng.next_double()));
    c.runtime->run_until_idle();
    std::uint64_t shed = 0, delivered = 0;
    for (const auto& node : c.nodes) {
      shed += node->gossip_stats().shed_events;
      delivered += node->stats().delivered;
    }
    return std::pair{shed, delivered};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_GT(first.first, 0u);
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Scenario engine: asymmetric and flapping partitions
// ---------------------------------------------------------------------------

ChurnConfig adversarial_config(std::uint64_t seed = 19) {
  ChurnConfig c;
  c.a = 4;
  c.d = 2;
  c.r = 2;
  c.pd = 0.7;
  c.initial_fill = 1.0;
  c.period = sim_ms(50);
  c.suspicion_timeout = sim_ms(10000);  // keep membership out of the way
  c.seed = seed;
  return c;
}

TEST(Adversarial, AsymPartitionIsOneWay) {
  // Same seed, same publish schedule, partitions that never heal inside
  // the horizon. Run A blocks only {0,2,3} -> {1}: side 1 hears nothing,
  // but its own publishes still flow OUT. Run B cuts side 1 off in both
  // directions (symmetric Partition). If the asym filter were secretly
  // two-way, both runs would strand side 1's events and deliver the same;
  // one-way-ness shows up as run A delivering strictly more.
  const auto run = [](bool symmetric) {
    ChurnSim sim(adversarial_config());
    ScenarioScript s;
    if (symmetric) {
      s.add(sim_ms(100), Partition{{1}, sim_ms(3900)});
    } else {
      AsymPartition p;
      p.from_side = {0, 2, 3};
      p.to_side = {1};
      p.heal_at = sim_ms(3900);
      s.add(sim_ms(100), p);
    }
    s.add(sim_ms(200), PublishBurst{8, sim_ms(20)});
    sim.play(s);
    sim.run_until(sim_ms(3500));  // stops before either heal fires
    return sim.summary();
  };
  const auto one_way = run(false);
  const auto two_way = run(true);
  EXPECT_EQ(one_way.counters.asym_partitions, 1u);
  EXPECT_EQ(two_way.counters.partitions, 1u);
  ASSERT_GT(one_way.counters.expected_deliveries, 0u);
  EXPECT_LE(one_way.counters.delivered,
            one_way.counters.expected_deliveries);
  // Both runs strand the events side 1 was owed...
  EXPECT_LT(one_way.counters.delivered,
            one_way.counters.expected_deliveries);
  // ...but only the symmetric cut also strands side 1's own publishes.
  EXPECT_GT(one_way.counters.delivered, two_way.counters.delivered);
}

TEST(Adversarial, FlapDropsOnlyInsideDownWindows) {
  ChurnSim sim(adversarial_config(31));
  ScenarioScript s;
  Flap f;
  f.side = {0};
  f.period = sim_ms(200);
  f.duty = 0.4;
  f.until = sim_ms(2000);
  s.add(sim_ms(100), f);
  s.add(sim_ms(300), PublishBurst{10, sim_ms(50)});
  sim.play(s);
  sim.run_until(sim_ms(5000));
  const auto summary = sim.summary();
  EXPECT_EQ(summary.counters.flaps, 1u);
  ASSERT_GT(summary.counters.expected_deliveries, 0u);
  // The link is up 60% of each period and the flap ends at 2s, so the
  // burst still gets through (recovery gossip fills the down windows).
  EXPECT_LE(summary.counters.delivered,
            summary.counters.expected_deliveries);
  EXPECT_GE(static_cast<double>(summary.counters.delivered),
            0.8 * static_cast<double>(summary.counters.expected_deliveries));
}

TEST(Adversarial, ScenarioRunsReplayBitForBit) {
  const auto run = [] {
    ChurnSim sim(adversarial_config(37));
    sim.play(ScenarioScript::parse(
        "at 100ms latency lognormal 2ms 0.8\n"
        "at 200ms flap 0 period 200ms duty 0.3 until 1500ms\n"
        "at 300ms duplicate 0.4 for 1s\n"
        "at 2s publish 6 every 50ms\n"));
    sim.run_until(sim_ms(4000));
    return sim.summary();
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_GT(first.network.duplicated, 0u);
  EXPECT_GT(first.dup_suppressed, 0u);
}

}  // namespace
}  // namespace pmc
