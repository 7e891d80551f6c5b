// TABLE (churn) — dissemination robustness under scripted churn/faults.
//
// Runs the same publish workload through the scenario engine under
// increasingly hostile timelines (calm → crash burst → partition →
// full storm with a loss spike) and reports how many receivers each
// published event still reaches, next to the network cost. The paper's
// qualitative claim (Sec. 1, Sec. 6): gossip keeps delivering through
// "unstable phases" that sever deterministic schemes.
//
// PMCAST_CHURN_SCALE (default 1) multiplies the group: 1 -> a=4 (n<=16),
// 2 -> a=8 (n<=64), 3 -> a=12 (n<=144), ...
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"

namespace {

using namespace pmc;

struct Row {
  std::string name;
  ScenarioScript script;
};

ScenarioScript publishes() {
  ScenarioScript s;
  s.add(sim_ms(500), PublishBurst{8, sim_ms(40)});
  s.add(sim_ms(1500), PublishBurst{8, sim_ms(40)});
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json(argc, argv, "table_churn");
  const auto scale = bench::env_size("PMCAST_CHURN_SCALE", 1);

  ChurnConfig config;
  config.a = 4 * scale;
  config.d = 2;
  config.r = 2;
  config.pd = 0.5;
  config.initial_fill = 0.8;
  config.loss = 0.02;
  config.period = sim_ms(50);
  config.seed = 2027;

  std::vector<Row> rows;
  rows.push_back({"calm", publishes()});
  {
    ScenarioScript s = publishes();
    ScenarioScript mixed;
    mixed.add(sim_ms(450), CrashNodes{3});
    for (const auto& a : s.actions()) mixed.add(a.at, a.op);
    rows.push_back({"crash burst", mixed});
  }
  {
    ScenarioScript s;
    s.add(sim_ms(400), Partition{{0, 1}, sim_ms(1300)});
    s.add(sim_ms(450), CrashNodes{3});
    s.add(sim_ms(500), PublishBurst{8, sim_ms(40)});
    s.add(sim_ms(1500), PublishBurst{8, sim_ms(40)});
    rows.push_back({"crash + partition", s});
  }
  {
    ScenarioScript s;
    s.add(sim_ms(400), Partition{{0, 1}, sim_ms(1300)});
    s.add(sim_ms(450), CrashNodes{3});
    s.add(sim_ms(500), PublishBurst{8, sim_ms(40)});
    s.add(sim_ms(600), LossBurst{0.30, sim_ms(600)});
    s.add(sim_ms(1500), PublishBurst{8, sim_ms(40)});
    s.add(sim_ms(1600), Join{2});
    s.add(sim_ms(1800), RecoverNodes{2});
    rows.push_back({"storm (loss spike, churn)", s});
  }

  std::cout << "Dissemination under scripted churn (capacity "
            << config.capacity() << ", base eps=" << config.loss
            << ", 16 events per row):\n\n";
  Table t({"scenario", "live end", "published", "delivered",
           "recv/event", "net sent", "filtered", "tombstones"});
  for (auto& row : rows) {
    ChurnSim sim(config);
    sim.play(row.script);
    sim.run_until(sim_ms(3000));
    const auto s = sim.summary();
    const double per_event =
        s.counters.published == 0
            ? 0.0
            : static_cast<double>(s.counters.delivered) /
                  static_cast<double>(s.counters.published);
    t.add_row({row.name, Table::integer(s.live),
               Table::integer(s.counters.published),
               Table::integer(s.counters.delivered),
               Table::num(per_event, 2), Table::integer(s.network.sent),
               Table::integer(s.network.filtered),
               Table::integer(s.membership_tombstones)});
  }
  t.print(std::cout);
  json.add_table("churn", t.headers(), t.rows());
  json.write();
  return 0;
}
