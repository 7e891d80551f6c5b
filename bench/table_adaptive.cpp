// TABLE (adaptive) — static vs. adaptive ε/τ estimation under hostile
// scenario scripts.
//
// The paper's Eq. 11 round bound assumes every process knows the
// environment's loss ε and crash rate τ; a static deployment freezes that
// estimate at configuration time, so a loss burst runs with a bound
// computed for calm weather. This table replays the same scripted
// LossBurst/Partition timelines twice — once with the frozen estimate,
// once with the online EnvEstimator (--adaptive in pmcast_sim) — and
// reports how many receivers each published event still reaches, next to
// the live mean ε̂ the estimators converged to.
//
// The run doubles as an acceptance gate: every row is replayed and must
// produce byte-identical summaries (the estimator is deterministic), and
// adaptive estimation must strictly improve delivery on at least one
// LossBurst row. The binary exits non-zero otherwise.
//
// PMCAST_CHURN_SCALE (default 1) multiplies the group like table_churn.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"

namespace {

using namespace pmc;

constexpr SimTime kHorizon = sim_ms(3000);

struct Row {
  std::string name;
  ScenarioScript script;
  bool loss_burst = false;  ///< rows eligible for the acceptance gate
};

ScenarioScript publishes() {
  ScenarioScript s;
  s.add(sim_ms(1300), PublishBurst{8, sim_ms(30)});
  s.add(sim_ms(1700), PublishBurst{8, sim_ms(30)});
  return s;
}

ScenarioScript with_burst(double eps, SimTime at, SimTime duration) {
  ScenarioScript s;
  s.add(at, LossBurst{eps, duration});
  const ScenarioScript pubs = publishes();
  for (const auto& a : pubs.actions()) s.add(a.at, a.op);
  return s;
}

struct Cell {
  ChurnSummary summary;
  bool reproducible = false;
};

Cell run_row(const ChurnConfig& config, const ScenarioScript& script) {
  const auto once = [&] {
    ChurnSim sim(config);
    sim.play(script);
    sim.run_until(kHorizon);
    return sim.summary();
  };
  Cell cell;
  cell.summary = once();
  cell.reproducible = once() == cell.summary;  // byte-identical replay
  return cell;
}

double per_event(const ChurnSummary& s) {
  return s.counters.published == 0
             ? 0.0
             : static_cast<double>(s.counters.delivered) /
                   static_cast<double>(s.counters.published);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json(argc, argv, "table_adaptive");
  const auto scale = bench::env_size("PMCAST_CHURN_SCALE", 1);

  ChurnConfig config;
  config.a = 4 * scale;
  config.d = 2;
  config.r = 2;
  config.pd = 0.5;
  config.initial_fill = 0.8;
  config.loss = 0.02;
  config.period = sim_ms(50);
  config.seed = 4242;

  std::vector<Row> rows;
  rows.push_back({"calm (eps=0.02)", publishes(), false});
  rows.push_back(
      {"loss burst 0.35", with_burst(0.35, sim_ms(300), sim_ms(1800)),
       true});
  rows.push_back(
      {"loss burst 0.45", with_burst(0.45, sim_ms(300), sim_ms(2200)),
       true});
  {
    ScenarioScript s;
    s.add(sim_ms(250), Partition{{0}, sim_ms(2400)});
    s.add(sim_ms(300), LossBurst{0.30, sim_ms(1800)});
    const ScenarioScript pubs = publishes();
    for (const auto& a : pubs.actions()) s.add(a.at, a.op);
    rows.push_back({"partition + loss 0.30", s, true});
  }
  {
    ScenarioScript s;
    s.add(sim_ms(250), CrashNodes{3});
    s.add(sim_ms(300), LossBurst{0.40, sim_ms(2000)});
    const ScenarioScript pubs = publishes();
    for (const auto& a : pubs.actions()) s.add(a.at, a.op);
    rows.push_back({"crash burst + loss 0.40", s, true});
  }

  std::cout << "Static vs adaptive eps/tau estimation (capacity "
            << config.capacity() << ", base eps=" << config.loss
            << ", 16 events per row, bound re-tuned per depth):\n\n";

  Table t({"scenario", "recv/event static", "recv/event adaptive", "delta",
           "eps-hat", "tau-hat", "collapsed s/a"});
  bool all_reproducible = true;
  bool adaptive_wins_a_burst = false;
  for (auto& row : rows) {
    ChurnConfig static_cfg = config;
    static_cfg.adaptive = false;
    ChurnConfig adaptive_cfg = config;
    adaptive_cfg.adaptive = true;

    const Cell s = run_row(static_cfg, row.script);
    const Cell a = run_row(adaptive_cfg, row.script);
    all_reproducible = all_reproducible && s.reproducible && a.reproducible;

    const double ps = per_event(s.summary);
    const double pa = per_event(a.summary);
    if (row.loss_burst && pa > ps) adaptive_wins_a_burst = true;

    t.add_row({row.name, Table::num(ps, 2), Table::num(pa, 2),
               Table::num(pa - ps, 2),
               Table::num(static_cast<double>(a.summary.env_loss_ppm) / 1e6,
                          3),
               Table::num(static_cast<double>(a.summary.env_crash_ppm) / 1e6,
                          3),
               Table::integer(s.summary.bound_collapsed) + "/" +
                   Table::integer(a.summary.bound_collapsed)});
  }
  t.print(std::cout);
  json.add_table("adaptive", t.headers(), t.rows());
  json.write();

  std::cout << "\nrepro-check: "
            << (all_reproducible ? "identical summaries on replay"
                                 : "MISMATCH — determinism bug!")
            << "\nadaptive vs static on loss bursts: "
            << (adaptive_wins_a_burst
                    ? "adaptive strictly improves delivery on >= 1 row"
                    : "NO IMPROVEMENT — estimator not helping!")
            << "\n";
  return (all_reproducible && adaptive_wins_a_burst) ? 0 : 1;
}
