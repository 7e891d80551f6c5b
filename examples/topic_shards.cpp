// Topic shards: four independent pmcast groups, each on its own simulated
// runtime and each running the full membership + dissemination stack, with
// cross-shard publishers whose events are injected into every shard they
// span — the multi-group deployment shape of many topics side by side.
//
// The demo then proves the two properties the sharded runtime is built
// around:
//   1. reproducibility — replaying the same config and scripts yields
//      byte-identical per-shard and aggregate summaries;
//   2. isolation — adding a churn action to shard 0's script leaves every
//      other shard's summary byte-identical, even though all shards run in
//      the same process and advance through the same run_until calls.
#include <iostream>

#include "harness/shard.hpp"

int main() {
  using namespace pmc;

  ShardedConfig config;
  config.shards = 4;
  config.shard.a = 4;
  config.shard.d = 2;
  config.shard.r = 2;
  config.shard.pd = 0.5;
  config.shard.initial_fill = 0.75;  // 12 of 16 addresses per shard
  config.shard.loss = 0.02;
  config.shard.period = sim_ms(50);
  config.shard.seed = 7;
  config.cross.publishers = 2;  // publisher p spans shards {p, p+1, p+2}
  config.cross.span = 3;
  config.cross.events = 5;
  config.cross.start = sim_ms(400);
  config.cross.spacing = sim_ms(150);

  // Every shard gets the same base script (its salted streams make it
  // unfold differently per shard); shard 2 additionally rides through a
  // partition of its own.
  ScenarioScript base;
  base.add(sim_ms(250), Join{1});
  base.add(sim_ms(600), PublishBurst{3, sim_ms(30)});
  base.add(sim_ms(900), CrashNodes{1});
  base.add(sim_ms(1300), PublishBurst{3, sim_ms(30)});
  ScenarioScript split;
  split.add(sim_ms(700), Partition{{0, 1}, sim_ms(1500)});

  const auto run = [&](bool extra_churn_in_shard0) {
    ShardedSim sim(config);
    sim.play_all(base);
    sim.play(2, split);
    if (extra_churn_in_shard0) {
      ScenarioScript more;
      more.add(sim_ms(800), LossBurst{0.5, sim_ms(300)});
      more.add(sim_ms(1200), CrashNodes{2});
      sim.play(0, more);
    }
    sim.run_until(sim_ms(2000));
    return sim.summary();
  };

  const ShardedSummary first = run(false);
  std::cout << "4 topic shards x 16 slots, 2 cross publishers spanning 3 "
               "shards, horizon 2s:\n"
            << first.to_string() << "\n";

  std::cout << "\nReplaying the identical run...\n";
  const ShardedSummary replay = run(false);
  const bool reproducible = replay == first;
  std::cout << (reproducible
                    ? "  byte-identical aggregate and per-shard summaries.\n"
                    : "  MISMATCH — determinism broken!\n");

  std::cout << "\nRe-running with extra churn (loss burst + crashes) in "
               "shard 0 only...\n";
  const ShardedSummary perturbed = run(true);
  bool isolated = perturbed.shards[0] != first.shards[0];
  for (std::size_t s = 1; s < perturbed.shards.size(); ++s)
    isolated = isolated && perturbed.shards[s] == first.shards[s];
  std::cout << (isolated
                    ? "  shard 0 diverged; shards 1-3 byte-identical — the "
                      "extra churn never leaked.\n"
                    : "  MISMATCH — shard isolation broken!\n");

  return reproducible && isolated ? 0 : 1;
}
