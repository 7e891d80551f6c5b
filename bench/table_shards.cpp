// TAB-SHARDS — multi-group scaling: K topic shards, one runtime each.
//
// The paper's scalability argument (Sec. 2.2, 4.3) is per-group: views and
// message costs stay bounded because each process only tracks its slice of
// one tree. The way a deployment scales past one group is by hosting many
// groups — topic shards — side by side, which is exactly what ShardedSim
// does. This table grows the shard count two ways:
//
//   A. fixed per-shard size  — each shard keeps a = 4, d = 2 (16 slots), so
//      the total population grows with K: cost per process should stay
//      flat (the shards are independent; there is no cross-shard membership
//      or dissemination traffic).
//   B. fixed total population — 256 slots split across K shards, so the
//      per-shard group shrinks as K grows: total message cost should
//      *fall* with K (smaller groups gossip to fewer delegates), the
//      mirror image of the per-group boundedness claim.
//
// Every row runs the same per-shard publish/churn script plus cross-shard
// publishers, and reports delivery, mean publish→deliver latency, network
// cost per process, scheduler throughput, and wall time.
#include <chrono>
#include <vector>

#include "bench_common.hpp"
#include "harness/shard.hpp"

namespace {

using namespace pmc;

ScenarioScript per_shard_script() {
  ScenarioScript s;
  s.add(sim_ms(300), PublishBurst{4, sim_ms(40)});
  s.add(sim_ms(700), CrashNodes{1});
  s.add(sim_ms(1100), PublishBurst{4, sim_ms(40)});
  return s;
}

struct Shape {
  std::size_t shards;
  std::size_t a;
  std::size_t d;
};

void run_section(const char* title, const std::vector<Shape>& shapes,
                 SimTime horizon, bench::JsonWriter& json) {
  std::cout << "\n" << title << "\n";
  Table t({"shards", "n/shard", "n total", "published", "delivered",
           "deliv/pub", "lat ms", "msgs", "msgs/proc", "sched ops",
           "wall ms"});
  for (const auto& shape : shapes) {
    ShardedConfig config;
    config.shards = shape.shards;
    config.shard.a = shape.a;
    config.shard.d = shape.d;
    config.shard.r = 2;
    config.shard.pd = 0.5;
    config.shard.initial_fill = 0.8;
    config.shard.loss = 0.02;
    config.shard.seed = 2027;
    if (shape.shards >= 2) {
      config.cross.publishers = std::min<std::size_t>(shape.shards, 4);
      config.cross.span = 2;
      config.cross.events = 4;
      config.cross.start = sim_ms(400);
      config.cross.spacing = sim_ms(100);
    }

    const auto wall_start = std::chrono::steady_clock::now();
    ShardedSim sim(config);
    sim.play_all(per_shard_script());
    sim.run_until(horizon);
    const auto summary = sim.summary();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    const std::size_t total = config.total_capacity();
    const auto& agg = summary.aggregate;
    const double processes = static_cast<double>(agg.live);
    t.add_row({Table::integer(shape.shards),
               Table::integer(config.shard.capacity()),
               Table::integer(total),
               Table::integer(agg.counters.published),
               Table::integer(agg.counters.delivered),
               Table::num(agg.counters.published == 0
                              ? 0.0
                              : static_cast<double>(agg.counters.delivered) /
                                    static_cast<double>(
                                        agg.counters.published),
                          1),
               Table::num(agg.latency_mean_ms(), 1),
               Table::integer(summary.network.sent),
               Table::num(processes == 0
                              ? 0.0
                              : static_cast<double>(summary.network.sent) /
                                    processes,
                          1),
               Table::integer(summary.scheduler_executed),
               Table::num(wall_ms, 1)});
  }
  t.print(std::cout);
  json.add_table(title, t.headers(), t.rows());
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json(argc, argv, "table_shards");
  bench::print_header(
      "TAB-SHARDS", "multi-group scaling (topic shards, one runtime each)",
      "per-shard script: publish 4, crash 1, publish 4; cross publishers "
      "span 2 shards; eps=0.02, R=2, pd=0.5, horizon 1.8s");

  const SimTime horizon = sim_ms(1800);
  // Section A now reaches 256 shards (16k processes) by default — the
  // ladder toward the 10^5-process rows bench/table_scale climbs to.
  run_section("A. fixed per-shard size (a=4, d=2 -> 16 slots per shard)",
              {{1, 4, 2}, {4, 4, 2}, {16, 4, 2}, {64, 4, 2}, {256, 4, 2}},
              horizon, json);
  run_section(
      "B. fixed total population (256 slots split across the shards)",
      {{1, 16, 2}, {4, 8, 2}, {16, 4, 2}, {64, 2, 2}}, horizon, json);
  json.write();

  std::cout << "\nExpected shape: in A, msgs/proc stays roughly flat as the\n"
               "population grows 16x (shards are independent); in B, total\n"
               "msgs falls as the same population splits into smaller\n"
               "groups. deliv/pub grows with the live interested audience\n"
               "per shard; latency stays in the few-gossip-period range.\n";
  return 0;
}
