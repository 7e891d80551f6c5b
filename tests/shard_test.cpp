// Sharded multi-group runtime: determinism, shard isolation, cross-shard
// publishing, thread-count independence, and config validation.
//
// The isolation tests are the load-bearing ones: K groups are driven
// together on a worker pool, yet adding a scenario action to shard A must
// leave every other shard's per-shard summary byte-identical. That only
// holds because every draw is labeled — shard-salted scenario streams,
// (pid, incarnation) process streams, (sender, sequence) network draws —
// rather than pulled from shared sequential state. The same isolation is
// what makes the thread-count and stepping tests pass: lanes and
// run_until slices decide wall-clock, never outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "harness/shard.hpp"

namespace pmc {
namespace {

ShardedConfig small_config(std::size_t shards) {
  ShardedConfig config;
  config.shards = shards;
  config.shard.a = 4;
  config.shard.d = 2;
  config.shard.r = 2;
  config.shard.loss = 0.05;
  config.shard.seed = 77;
  return config;
}

ScenarioScript busy_script() {
  ScenarioScript s;
  s.add(sim_ms(200), Join{1});
  s.add(sim_ms(400), PublishBurst{4, sim_ms(20)});
  s.add(sim_ms(700), CrashNodes{2});
  s.add(sim_ms(900), PublishBurst{3, sim_ms(20)});
  s.add(sim_ms(1200), RecoverNodes{1});
  return s;
}

TEST(ShardedSim, SameSeedSameSummaries) {
  const auto run = [] {
    ShardedSim sim(small_config(4));
    sim.play_all(busy_script());
    sim.run_until(sim_ms(1600));
    return sim.summary();
  };
  const ShardedSummary first = run();
  const ShardedSummary second = run();
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.shards.size(), 4u);
}

TEST(ShardedSim, ShardsDivergeFromEachOther) {
  // Same script on every shard, but shard-salted streams and per-shard
  // subscription seeds: the shards must not be clones of each other.
  ShardedSim sim(small_config(3));
  sim.play_all(busy_script());
  sim.run_until(sim_ms(1600));
  const auto summary = sim.summary();
  EXPECT_NE(summary.shards[0].fingerprint, summary.shards[1].fingerprint);
  EXPECT_NE(summary.shards[1].fingerprint, summary.shards[2].fingerprint);
}

TEST(ShardedSim, ExtraActionInOneShardLeavesOthersUntouched) {
  const auto run = [](bool extra) {
    ShardedSim sim(small_config(3));
    sim.play_all(busy_script());
    if (extra) {
      ScenarioScript more;
      more.add(sim_ms(500), LossBurst{0.5, sim_ms(300)});
      more.add(sim_ms(1000), CrashNodes{1});
      more.add(sim_ms(1100), PublishBurst{5});
      sim.play(0, more);
    }
    sim.run_until(sim_ms(1600));
    return sim.summary();
  };
  const ShardedSummary base = run(false);
  const ShardedSummary perturbed = run(true);
  // Shard 0 must see its extra churn...
  EXPECT_NE(base.shards[0], perturbed.shards[0]);
  EXPECT_EQ(perturbed.shards[0].counters.loss_bursts, 1u);
  // ...while shards 1 and 2 are byte-identical, despite running in the
  // same process, worker pool and run_until calls as shard 0.
  EXPECT_EQ(base.shards[1], perturbed.shards[1]);
  EXPECT_EQ(base.shards[2], perturbed.shards[2]);
}

TEST(ShardedSim, AdaptiveShardLeavesOthersByteIdentical) {
  // Flipping online ε/τ estimation on for shard 0 alone adds digest acks,
  // estimator sampling and a re-tuned Eq. 11 bound *inside that shard* —
  // shards 1 and 2 must replay byte-identically regardless.
  const auto run = [](bool adaptive_shard0) {
    ShardedConfig config = small_config(3);
    if (adaptive_shard0) config.adaptive_shards = {0};
    ShardedSim sim(config);
    sim.play_all(busy_script());
    ScenarioScript burst;
    burst.add(sim_ms(500), LossBurst{0.4, sim_ms(600)});
    sim.play(0, burst);
    sim.run_until(sim_ms(1600));
    return sim.summary();
  };
  const ShardedSummary base = run(false);
  const ShardedSummary adaptive = run(true);
  // Shard 0 must actually be estimating...
  EXPECT_EQ(base.shards[0].env_windows, 0u);
  EXPECT_GT(adaptive.shards[0].env_windows, 0u);
  EXPECT_GT(adaptive.shards[0].env_loss_ppm, 0u);
  EXPECT_NE(base.shards[0], adaptive.shards[0]);
  // ...while the static shards are untouched, byte for byte.
  EXPECT_EQ(base.shards[1], adaptive.shards[1]);
  EXPECT_EQ(base.shards[2], adaptive.shards[2]);
}

TEST(ShardedConfigValidate, RejectsOutOfRangeAdaptiveShard) {
  ShardedConfig config = small_config(2);
  config.adaptive_shards = {2};  // only shards 0 and 1 exist
  EXPECT_THROW(config.validate(), std::logic_error);
}

TEST(ShardedSim, PartitionInOneShardLeavesOthersUntouched) {
  const auto run = [](bool split) {
    ShardedSim sim(small_config(2));
    sim.play_all(busy_script());
    if (split) {
      ScenarioScript more;
      more.add(sim_ms(300), Partition{{0, 1}, sim_ms(1200)});
      sim.play(1, more);
    }
    sim.run_until(sim_ms(1600));
    return sim.summary();
  };
  const ShardedSummary base = run(false);
  const ShardedSummary split = run(true);
  EXPECT_EQ(split.shards[1].counters.partitions, 1u);
  EXPECT_EQ(split.shards[1].counters.heals, 1u);
  EXPECT_EQ(base.shards[0], split.shards[0]);
}

TEST(ShardedSim, CrossPublishersReachEverySpannedShard) {
  ShardedConfig config = small_config(4);
  config.shard.loss = 0.0;
  config.cross.publishers = 4;  // publisher p spans shards {p, p+1 mod 4}
  config.cross.span = 2;
  config.cross.events = 3;
  config.cross.start = sim_ms(200);
  config.cross.spacing = sim_ms(100);
  ShardedSim sim(config);
  sim.run_until(sim_ms(1500));
  const auto summary = sim.summary();
  // 4 publishers x 3 events x 2 shards, every shard fully populated.
  EXPECT_EQ(summary.cross_published, 24u);
  for (const auto& shard : summary.shards) {
    // Each shard is spanned by two publishers: 2 x 3 events entered it.
    EXPECT_EQ(shard.counters.published, 6u);
    EXPECT_GT(shard.counters.delivered, 0u);
    EXPECT_GT(shard.latency_samples, 0u);
  }
}

TEST(ShardedSim, AggregateSumsEveryAdditiveField) {
  // A duplicate storm and one-event caps make the exactly-once and shedding
  // counters, and the network's injector counters, non-zero, so a field the
  // aggregate forgets to sum fails here. The oracle sums field by field.
  ShardedConfig config = small_config(4);
  config.shard.max_retained = 1;
  config.shard.max_buffered = 1;
  ShardedSim sim(config);
  ScenarioScript storm;
  storm.add(sim_ms(100), DuplicateBurst{0.5, sim_ms(1500)});
  sim.play_all(storm);
  sim.play_all(busy_script());
  sim.run_until(sim_ms(1600));
  const ShardedSummary summary = sim.summary();

  GroupSummary sum;
  for (const auto& g : summary.shards) {
    sum.counters += g.counters;
    sum.live += g.live;
    sum.joined += g.joined;
    sum.membership_tombstones += g.membership_tombstones;
    sum.joins_served += g.joins_served;
    sum.latency_samples += g.latency_samples;
    sum.latency_total += g.latency_total;
    sum.latency_max = std::max(sum.latency_max, g.latency_max);
    sum.env_windows += g.env_windows;
    sum.bound_collapsed += g.bound_collapsed;
    sum.dup_suppressed += g.dup_suppressed;
    sum.shed_events += g.shed_events;
  }
  ASSERT_GT(sum.dup_suppressed, 0u);
  ASSERT_GT(sum.shed_events, 0u);
  const GroupSummary& agg = summary.aggregate;
  EXPECT_EQ(agg.counters, sum.counters);
  EXPECT_EQ(agg.live, sum.live);
  EXPECT_EQ(agg.joined, sum.joined);
  EXPECT_EQ(agg.membership_tombstones, sum.membership_tombstones);
  EXPECT_EQ(agg.joins_served, sum.joins_served);
  EXPECT_EQ(agg.latency_samples, sum.latency_samples);
  EXPECT_EQ(agg.latency_total, sum.latency_total);
  EXPECT_EQ(agg.latency_max, sum.latency_max);
  EXPECT_EQ(agg.env_windows, sum.env_windows);
  EXPECT_EQ(agg.bound_collapsed, sum.bound_collapsed);
  EXPECT_EQ(agg.dup_suppressed, sum.dup_suppressed);
  EXPECT_EQ(agg.shed_events, sum.shed_events);

  NetworkCounters net;
  for (std::size_t s = 0; s < sim.shard_count(); ++s) {
    const NetworkCounters& n = sim.shard_runtime(s).network().counters();
    net.sent += n.sent;
    net.delivered += n.delivered;
    net.lost += n.lost;
    net.filtered += n.filtered;
    net.dead_target += n.dead_target;
    net.duplicated += n.duplicated;
    net.reordered += n.reordered;
  }
  ASSERT_GT(net.duplicated, 0u);
  EXPECT_EQ(summary.network, net);
}

TEST(ShardedSim, LossBurstIsScopedToItsShard) {
  // With a very aggressive loss burst in shard 0 only, shard 1's network
  // behavior is untouched — covered byte-for-byte by the isolation test
  // above; here we additionally pin the scoped-loss counters.
  ShardedSim sim(small_config(2));
  ScenarioScript burst;
  burst.add(sim_ms(300), LossBurst{0.9, sim_ms(400)});
  sim.play(0, burst);
  sim.run_until(sim_ms(1000));
  const auto summary = sim.summary();
  EXPECT_EQ(summary.shards[0].counters.loss_bursts, 1u);
  EXPECT_EQ(summary.shards[0].counters.loss_restores, 1u);
  EXPECT_EQ(summary.shards[1].counters.loss_bursts, 0u);
}

TEST(ShardedConfigValidate, RejectsNonsense) {
  ShardedConfig config = small_config(2);
  config.shards = 0;
  EXPECT_THROW(config.validate(), std::logic_error);

  config = small_config(2);
  config.cross.publishers = 1;
  config.cross.span = 3;  // span > shards
  EXPECT_THROW(config.validate(), std::logic_error);

  config = small_config(2);
  config.cross.publishers = 1;
  config.cross.events = 0;
  EXPECT_THROW(config.validate(), std::logic_error);

  config = small_config(2);
  config.shard.a = 0;  // invalid shard template bubbles up
  EXPECT_THROW(config.validate(), std::logic_error);

  // shards x capacity must not wrap: (2^60 + 1) shards of 16 slots is 16
  // slots mod 2^64, under the bound.
  config = small_config(2);
  ASSERT_EQ(config.shard.capacity(), 16u);
  config.shards = (std::size_t{1} << 60) + 1;
  EXPECT_THROW(config.validate(), std::logic_error);

  // publishers x events x span injections are bounded like capacity is,
  // before the constructor tries to pre-schedule them.
  config = small_config(2);
  config.cross.publishers = 1'000'000'000;
  EXPECT_THROW(config.validate(), std::logic_error);
}

TEST(ShardedSim, PidRangesAreDisjoint) {
  ShardedSim sim(small_config(3));
  const std::size_t capacity = sim.config().shard.capacity();
  for (std::size_t s = 0; s < sim.shard_count(); ++s)
    EXPECT_EQ(sim.shard(s).pid_base(), s * 2 * capacity);
}

TEST(ShardedSim, ThreadCountNeverChangesTheSummary) {
  // The full churn workload — joins, crashes, publishes, recoveries, a
  // shard-scoped partition AND cross-shard publishers — must produce the
  // same bytes on 1, 2, 3, and 8 lanes. Not just the fingerprints: the
  // entire ShardedSummary, per-shard summaries included.
  const auto run = [](std::size_t threads) {
    ShardedConfig config = small_config(5);
    config.cross.publishers = 2;
    config.cross.span = 3;
    config.cross.events = 4;
    config.cross.start = sim_ms(250);
    config.cross.spacing = sim_ms(80);
    config.threads = threads;
    ShardedSim sim(config);
    sim.play_all(busy_script());
    ScenarioScript split;
    split.add(sim_ms(300), Partition{{0, 1}, sim_ms(1200)});
    sim.play(2, split);
    sim.run_until(sim_ms(1600));
    return sim.summary();
  };
  const ShardedSummary serial = run(1);
  for (const std::size_t threads : {2u, 3u, 8u}) {
    EXPECT_EQ(run(threads), serial) << "threads=" << threads;
  }
}

TEST(ShardedSim, ThreadsZeroMeansHardwareConcurrency) {
  ShardedConfig config = small_config(4);
  config.threads = 0;
  ShardedSim sim(config);
  EXPECT_GE(sim.thread_count(), 1u);
  // Never more lanes than shards — extras would only idle at the barrier.
  EXPECT_LE(sim.thread_count(), 4u);
}

TEST(ShardedSim, SteppingDoesNotChangeTheSummary) {
  // run_until takes every shard straight to its deadline in one pool
  // batch, so how a caller slices time must not show in the result: one
  // call, one gossip period per call, and irregular steps on two lanes
  // (including a repeated and a past deadline, both no-ops) all agree.
  const SimTime horizon = sim_ms(1600);
  const auto run = [&](std::size_t threads,
                       const std::vector<SimTime>& stops) {
    ShardedConfig config = small_config(4);
    config.cross.publishers = 3;
    config.cross.span = 2;
    config.cross.events = 5;
    config.cross.start = sim_ms(250);
    config.cross.spacing = sim_ms(90);
    config.threads = threads;
    ShardedSim sim(config);
    sim.play_all(busy_script());
    ScenarioScript split;
    split.add(sim_ms(300), Partition{{0, 1}, sim_ms(1200)});
    sim.play(1, split);
    for (const SimTime t : stops) sim.run_until(t);
    EXPECT_EQ(sim.now(), horizon);
    return sim.summary();
  };
  const ShardedSummary whole = run(1, {horizon});
  ASSERT_GT(whole.cross_published, 0u);
  ASSERT_EQ(whole.shards[1].counters.partitions, 1u);

  std::vector<SimTime> periods;
  const SimTime period = small_config(4).shard.period;
  for (SimTime t = period; t < horizon; t += period) periods.push_back(t);
  periods.push_back(horizon);
  EXPECT_EQ(run(1, periods), whole);

  EXPECT_EQ(run(2, {sim_us(1), sim_ms(250), sim_ms(250), sim_ms(100),
                    sim_ms(333) + 7, sim_ms(400), sim_ms(1200) + 1,
                    sim_ms(1599), horizon}),
            whole);
}

}  // namespace
}  // namespace pmc
