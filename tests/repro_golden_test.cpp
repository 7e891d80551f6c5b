// Golden end-to-end fingerprints: the full churn/shard stacks must produce
// byte-identical run digests across refactors of the internal memory
// layout (address interning, SoA views, summary pooling). The pinned
// values were captured from the pre-interning implementation, so any drift
// here means observable behavior changed — RNG draw order, delivery
// counts, gossip order — not just representation.
//
// Configs mirror `pmcast_sim --scenario demo [--wire|--adaptive]` and
// `pmcast_sim --shards ...` defaults (a=4, d=2, R=2, F=2, eps=0.05,
// fill=0.75, seed=42, horizon 3500 ms).
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "harness/shard.hpp"
#include "wire/messages.hpp"

namespace pmc {
namespace {

ChurnConfig demo_config() {
  ChurnConfig config;
  config.a = 4;
  config.d = 2;
  config.r = 2;
  config.pd = 0.5;
  config.fanout = 2;
  config.loss = 0.05;
  config.initial_fill = 0.75;
  config.seed = 42;
  return config;
}

ChurnSummary run_demo(ChurnConfig config) {
  ChurnSim sim(config);
  sim.play(ScenarioScript::demo());
  sim.run_until(sim_ms(3500));
  return sim.summary();
}

TEST(ReproGolden, ScenarioDemo) {
  const ChurnSummary s = run_demo(demo_config());
  EXPECT_EQ(s.fingerprint, 0x0709bfc910400cbcULL) << s.to_string();
  EXPECT_EQ(s.counters.delivered, 81u);
  EXPECT_EQ(s.network.sent, 3560u);
}

TEST(ReproGolden, ScenarioDemoWireTranscodeIsTransparent) {
  // Running every message through the frozen wire codec must not change a
  // single draw or delivery: same fingerprint as the in-memory run.
  ChurnConfig config = demo_config();
  config.wire_transcode = true;
  const ChurnSummary s = run_demo(config);
  EXPECT_EQ(s.fingerprint, 0x0709bfc910400cbcULL) << s.to_string();
}

/// A depth-3 group under churn, loss, a partition and duplication. At
/// depth 3 a digest reaches processes outside the receiver's leaf subgroup,
/// so the in-memory and decoded sender forms take different paths into
/// the contact table; every way of carrying the messages must give the
/// same run.
constexpr const char* kDepth3ChurnScript =
    "at 200ms joinstorm 20 over 400ms\n"
    "at 300ms publish 10 every 30ms\n"
    "at 700ms crash 10\n"
    "at 900ms partition 0,1 heal 1800ms\n"
    "at 1s publish 10 every 30ms\n"
    "at 1200ms loss 0.3 for 400ms\n"
    "at 2s recover 8\n"
    "at 2200ms duplicate 0.3 for 600ms\n"
    "at 2300ms publish 10 every 30ms\n"
    "at 2600ms leave 5\n"
    "at 3s publish 10 every 30ms\n";

TEST(ReproGolden, Depth3ChurnInMemoryAndOverTheWire) {
  ChurnConfig config;
  config.a = 6;
  config.d = 3;
  config.r = 2;
  config.pd = 0.5;
  config.fanout = 3;
  config.loss = 0.02;
  config.initial_fill = 0.7;
  config.seed = 2027;
  // In memory; through the runtime's codec (wire_transcode), which hands
  // receivers its ids and pooled summaries; and through the stateless
  // decode, as pmbench's traced rep installs it, which hands them the
  // decoded form: decoded senders entering the contact table,
  // DepthView::upsert's interning branch and apply_row's decoded
  // self-tombstone check.
  enum class Carry { kInMemory, kCodec, kStatelessDecode };
  for (const Carry carry :
       {Carry::kInMemory, Carry::kCodec, Carry::kStatelessDecode}) {
    config.wire_transcode = carry == Carry::kCodec;
    ChurnSim sim(config);
    if (carry == Carry::kStatelessDecode) {
      sim.runtime().network().set_transcoder([](const MessagePtr& msg) {
        return wire::decode_message(wire::encode_message(*msg));
      });
    }
    sim.play(ScenarioScript::parse(kDepth3ChurnScript));
    sim.run_until(sim_ms(4000));
    const ChurnSummary s = sim.summary();
    EXPECT_EQ(s.fingerprint, 0xfd4c609f65c79914ULL)
        << "carry=" << static_cast<int>(carry) << "\n" << s.to_string();
    EXPECT_EQ(s.counters.delivered, 2443u);
    EXPECT_EQ(s.membership_tombstones, 192u);
    EXPECT_EQ(s.network.sent, 90321u);
  }
}

TEST(ReproGolden, ScenarioDemoAdaptive) {
  ChurnConfig config = demo_config();
  config.adaptive = true;
  config.adaptive_alpha = 0.3;
  const ChurnSummary s = run_demo(config);
  EXPECT_EQ(s.fingerprint, 0xc21c3172b50fce84ULL) << s.to_string();
  EXPECT_EQ(s.env_windows, 431u);
}

ShardedConfig sharded_config(std::size_t shards) {
  ShardedConfig config;
  config.shards = shards;
  config.shard = demo_config();
  return config;
}

/// The worker-pool engine must not just replay itself — it must replay the
/// single-runtime engine the pins were captured under, at every lane
/// count. Sharded goldens therefore run at T = 1, 2, and 8 and assert the
/// same pinned values each time.
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

TEST(ReproGolden, Shards16AnyThreadCount) {
  for (const auto threads : kThreadCounts) {
    ShardedConfig config = sharded_config(16);
    config.threads = threads;
    ShardedSim sim(config);
    sim.run_until(sim_ms(3500));
    const ShardedSummary s = sim.summary();
    EXPECT_EQ(s.fingerprint, 0x0f8b319af33eb380ULL)
        << "threads=" << threads << "\n" << s.to_string();
    EXPECT_EQ(s.aggregate.fingerprint, 0x50a6bd223289b406ULL);
    ASSERT_EQ(s.shards.size(), 16u);
    EXPECT_EQ(s.shards[0].fingerprint, 0x688f9f4ddc880d45ULL);
  }
}

TEST(ReproGolden, WanFlapScenarioAnyThreadCount) {
  // Adversarial pin: a WAN latency profile plus a flapping partition on
  // shard 0. The injector draws ride labeled sub-streams of the
  // per-message seed, so the fingerprint must not move with the thread
  // count — and any change to how those streams are derived moves it.
  for (const auto threads : kThreadCounts) {
    ShardedConfig config = sharded_config(4);
    config.threads = threads;
    ShardedSim sim(config);
    sim.play(0, ScenarioScript::parse(
                    "at 100ms latency lognormal 2ms 0.8\n"
                    "at 200ms flap 0 period 200ms duty 0.3 until 1500ms\n"
                    "at 2s publish 6 every 50ms\n"));
    sim.run_until(sim_ms(3500));
    const ShardedSummary s = sim.summary();
    EXPECT_EQ(s.fingerprint, 0x0f34ef7a70b65007ULL)
        << "threads=" << threads << "\n" << s.to_string();
    EXPECT_EQ(s.aggregate.fingerprint, 0xba8c26674d1c9b2cULL);
    ASSERT_EQ(s.shards.size(), 4u);
    EXPECT_EQ(s.shards[0].fingerprint, 0x4d0f251324264df4ULL);
  }
}

TEST(ReproGolden, WanDuplicateScenarioAnyThreadCount) {
  // Adversarial pin: duplication while a WAN latency profile is installed,
  // so every clone draws its latency from the LogNormal profile on the
  // duplicate's labeled stream. One publish burst falls inside the
  // duplication window and one after it.
  for (const auto threads : kThreadCounts) {
    ShardedConfig config = sharded_config(4);
    config.threads = threads;
    ShardedSim sim(config);
    sim.play(0, ScenarioScript::parse(
                    "at 100ms latency lognormal 2ms 0.8\n"
                    "at 1s duplicate 0.4 for 900ms\n"
                    "at 1200ms publish 6 every 50ms\n"
                    "at 2500ms publish 6 every 50ms\n"));
    sim.run_until(sim_ms(3500));
    const ShardedSummary s = sim.summary();
    EXPECT_EQ(s.fingerprint, 0x9789c1e3ef646b97ULL)
        << "threads=" << threads << "\n" << s.to_string();
    EXPECT_EQ(s.aggregate.fingerprint, 0x6dff621f68bb4aebULL);
    ASSERT_EQ(s.shards.size(), 4u);
    EXPECT_EQ(s.shards[0].fingerprint, 0x9322e9a53a82a702ULL);
    EXPECT_GT(s.network.duplicated, 0u);
    EXPECT_GT(s.shards[0].dup_suppressed, 0u);
  }
}

TEST(ReproGolden, Shards4Cross2AnyThreadCount) {
  for (const auto threads : kThreadCounts) {
    ShardedConfig config = sharded_config(4);
    config.cross.publishers = 2;
    config.cross.span = 2;
    config.cross.events = 8;
    config.cross.spacing = sim_ms(100);
    config.threads = threads;
    ShardedSim sim(config);
    sim.run_until(sim_ms(3500));
    const ShardedSummary s = sim.summary();
    EXPECT_EQ(s.fingerprint, 0x0156089b3f3e12f6ULL)
        << "threads=" << threads << "\n" << s.to_string();
    EXPECT_EQ(s.aggregate.fingerprint, 0xadc2bec9eed60c1dULL);
    ASSERT_EQ(s.shards.size(), 4u);
    EXPECT_EQ(s.shards[0].fingerprint, 0x493af6e591c12ab5ULL);
    EXPECT_EQ(s.shards[1].fingerprint, 0x95dab52657582cdaULL);
  }
}

/// Every verb that draws a vacant or live slot: storms, a batched join, a
/// rack failure, recoveries, a leave and a crash, on a half-full group so
/// the draws have room to differ.
constexpr const char* kVacancyScript =
    "at 200ms joinstorm 8 over 300ms\n"
    "at 300ms publish 6 every 30ms\n"
    "at 550ms rack 1\n"
    "at 650ms recover 3\n"
    "at 700ms joinstorm 3\n"
    "at 800ms join 2\n"
    "at 1200ms leave 2\n"
    "at 1300ms crash 2\n"
    "at 1500ms publish 6 every 30ms\n";

TEST(ReproGolden, VacancyDraws) {
  ChurnConfig config = demo_config();
  config.a = 6;
  config.initial_fill = 0.5;
  ChurnSim sim(config);
  sim.play(ScenarioScript::parse(kVacancyScript));
  sim.run_until(sim_ms(2500));
  const ChurnSummary s = sim.summary();
  EXPECT_EQ(s.fingerprint, 0x48b9fed4d9fc0c6bULL) << s.to_string();
  EXPECT_EQ(s.counters.joins_requested, 16u);
  EXPECT_EQ(s.counters.crashes, 7u);
  EXPECT_EQ(s.counters.recoveries, 3u);
  EXPECT_EQ(s.counters.leaves, 2u);
  EXPECT_EQ(s.counters.delivered, 81u);
  EXPECT_EQ(s.network.sent, 4836u);
}

TEST(ReproGolden, VacancyDrawsShardAnyThreadCount) {
  for (const auto threads : kThreadCounts) {
    ShardedConfig config = sharded_config(4);
    config.shard.a = 6;
    config.shard.initial_fill = 0.5;
    config.threads = threads;
    ShardedSim sim(config);
    sim.play(1, ScenarioScript::parse(kVacancyScript));
    sim.run_until(sim_ms(2500));
    const ShardedSummary s = sim.summary();
    EXPECT_EQ(s.fingerprint, 0x175b66d7190e2c03ULL)
        << "threads=" << threads << "\n" << s.to_string();
    EXPECT_EQ(s.aggregate.fingerprint, 0xc4ae7b184148a8b6ULL);
    ASSERT_EQ(s.shards.size(), 4u);
    EXPECT_EQ(s.shards[1].fingerprint, 0x13d0481d308b868bULL);
  }
}

TEST(ReproGolden, Shards8PartitionedShardAnyThreadCount) {
  // A partition scoped to one shard (install + heal both inside the run)
  // must unfold identically under every lane count; the fingerprint was
  // captured at threads=1 on the engine that passes the pins above.
  ShardedSummary reference;
  for (const auto threads : kThreadCounts) {
    ShardedConfig config = sharded_config(8);
    config.threads = threads;
    ShardedSim sim(config);
    ScenarioScript script;
    script.add(sim_ms(400), Partition{{0, 1}, sim_ms(1600)});
    script.add(sim_ms(800), CrashNodes{2});
    sim.play(3, script);
    sim.run_until(sim_ms(3500));
    const ShardedSummary s = sim.summary();
    EXPECT_EQ(s.fingerprint, 0x9bb4edacdf0f0d73ULL)
        << "threads=" << threads << "\n" << s.to_string();
    if (threads == 1) {
      reference = s;
    } else {
      EXPECT_EQ(s, reference) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace pmc
