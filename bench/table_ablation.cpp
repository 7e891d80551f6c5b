// TAB-ABLATION — ablations of the design choices listed in
// docs/ARCHITECTURE.md ("Deviations from the paper").
// No single table in the paper corresponds to this; it quantifies the
// knobs the paper discusses qualitatively:
//   A. local-interest shortcut (Sec. 3.2 note) — message savings for
//      locality-clustered interests;
//   B. Pittel constant c (Eq. 3) — reliability vs extra rounds;
//   C. redundancy R under crashes — delegate redundancy buys reliability;
//   D. leaf flooding at dense interest (Sec. 6) — messages vs gossip;
//   E. root filter coarsening (Sec. 6) — false reception cost.
#include "bench_common.hpp"

#include "pmcast/node.hpp"

int main(int argc, char** argv) {
  using namespace pmc;
  bench::JsonWriter json(argc, argv, "table_ablation");
  const std::size_t runs = bench::runs_per_point(10);
  bench::print_header("TAB-ABLATION", "Design-choice ablations",
                      "base: a=10, d=3 (n=1000), R=3, F=3, eps=0.05, "
                      "runs/point=" + std::to_string(runs));

  const auto base = [&] {
    ExperimentConfig c;
    c.a = 10;
    c.d = 3;
    c.r = 3;
    c.fanout = 3;
    c.pd = 0.5;
    c.loss = 0.05;
    c.runs = runs;
    c.seed = 101;
    return c;
  };

  {
    // The shortcut matters when the publisher's own subtree is the only
    // interested one, so this ablation publishes *from inside* the
    // interested cluster (run_pmcast_experiment randomizes the publisher,
    // which would almost never hit that case).
    std::cout << "\n[A] Local-interest shortcut (publisher inside the only"
                 " interested cluster):\n";
    Table t({"shortcut", "delivered", "messages"});
    for (const bool on : {true, false}) {
      Rng rng(7);
      const auto space = AddressSpace::regular(6, 2);
      const auto members =
          clustered_interest_members(space, 0.15, 0.0, rng);
      TreeConfig tc;
      tc.depth = 2;
      tc.redundancy = 3;
      Interns interns;
      const GroupTree tree(tc, members, interns);
      std::uint64_t messages = 0;
      std::size_t delivered = 0;
      for (std::uint64_t seed = 0; seed < runs; ++seed) {
        Runtime rt(NetworkConfig{}, 55 + seed);
        std::vector<ProcessId> dir;
        for (std::size_t i = 0; i < members.size(); ++i) {
          const AddrId id = interns.addrs.intern(members[i].address);
          if (dir.size() <= id) dir.resize(id + 1, kNoProcess);
          dir[id] = static_cast<ProcessId>(i);
        }
        PmcastConfig pc;
        pc.tree = tc;
        pc.fanout = 3;
        pc.local_interest_shortcut = on;
        std::vector<std::unique_ptr<PmcastNode>> nodes;
        for (std::size_t i = 0; i < members.size(); ++i)
          nodes.push_back(std::make_unique<PmcastNode>(
              rt, static_cast<ProcessId>(i), pc, members[i].address,
              members[i].subscription, tree.tables_for(members[i].address),
              [&dir](AddrId id) {
                return id < dir.size() ? dir[id] : kNoProcess;
              }));
        // Cluster 0 subscribes around u = 0.05; publish from inside it.
        nodes[0]->pmcast(make_event_at(0, seed, 0.05));
        rt.run_until_idle();
        messages += rt.network().counters().sent;
        for (const auto& n : nodes)
          if (n->has_delivered(EventId{0, seed})) ++delivered;
      }
      t.add_row({on ? "on" : "off", Table::integer(delivered),
                 Table::integer(messages)});
    }
    t.print(std::cout);
    json.add_table("A. local-interest shortcut", t.headers(), t.rows());
  }

  {
    std::cout << "\n[B] Pittel constant c (pd=0.05 — small audience):\n";
    Table t({"c", "delivery", "rounds", "msgs/process"});
    for (const double c_val : {0.0, 1.0, 2.0, 4.0}) {
      auto c = base();
      c.pd = 0.05;
      c.pittel_c = c_val;
      const auto r = run_pmcast_experiment(c);
      t.add_row({Table::num(c_val, 1), bench::pm(r.delivery, 3),
                 Table::num(r.rounds.mean(), 1),
                 Table::num(r.messages_per_process.mean(), 2)});
    }
    t.print(std::cout);
    json.add_table("B. pittel constant", t.headers(), t.rows());
  }

  {
    std::cout << "\n[C] Redundancy R under 10% crashes:\n";
    Table t({"R", "delivery", "view size m"});
    for (const std::size_t r_val : {1u, 2u, 3u, 4u}) {
      auto c = base();
      c.r = r_val;
      c.crash_fraction = 0.10;
      const auto r = run_pmcast_experiment(c);
      t.add_row({Table::integer(r_val), bench::pm(r.delivery, 3),
                 Table::integer(r_val * 10 * 2 + 10)});
    }
    t.print(std::cout);
    json.add_table("C. redundancy under crashes", t.headers(), t.rows());
  }

  {
    std::cout << "\n[D] Leaf flooding at dense interest (pd=0.95):\n";
    Table t({"flood", "delivery", "msgs/process", "rounds"});
    for (const bool on : {false, true}) {
      auto c = base();
      c.pd = 0.95;
      c.leaf_flood_density = on ? 0.9 : 2.0;
      const auto r = run_pmcast_experiment(c);
      t.add_row({on ? "on" : "off", bench::pm(r.delivery, 3),
                 Table::num(r.messages_per_process.mean(), 2),
                 Table::num(r.rounds.mean(), 1)});
    }
    t.print(std::cout);
    json.add_table("D. leaf flooding", t.headers(), t.rows());
  }

  {
    // At pd = 0.04 the depth-2 interval unions have gaps that coarsening
    // bridges (depth-1 unions are near-total either way), so rows at
    // depths <= 2 coarsened shows the precision cost.
    std::cout << "\n[E] Root filter coarsening (pd=0.04):\n";
    Table t({"coarsen", "delivery", "false-reception"});
    for (const bool on : {false, true}) {
      auto c = base();
      c.pd = 0.04;
      c.tuning_threshold = 5;  // keep small-audience delivery comparable
      c.coarsen_depth_leq = on ? 2 : 0;
      const auto r = run_pmcast_experiment(c);
      t.add_row({on ? "<=2" : "off", bench::pm(r.delivery, 3),
                 bench::pm(r.false_reception, 3)});
    }
    t.print(std::cout);
    json.add_table("E. root filter coarsening", t.headers(), t.rows());
  }

  {
    std::cout << "\n[F] Digest recovery under 30% loss (pd=0.5):\n";
    Table t({"recovery", "delivery", "msgs/process"});
    for (const std::size_t rounds : {0u, 3u, 6u}) {
      auto c = base();
      c.loss = 0.30;
      c.recovery_rounds = rounds;
      const auto r = run_pmcast_experiment(c);
      t.add_row({rounds == 0 ? "off" : std::to_string(rounds) + " rounds",
                 bench::pm(r.delivery, 3),
                 Table::num(r.messages_per_process.mean(), 2)});
    }
    t.print(std::cout);
    json.add_table("F. digest recovery", t.headers(), t.rows());
  }

  std::cout << "\nShape check: [A] fewer messages with the shortcut;"
               " [B] delivery grows with c at extra message cost;"
               " [C] delivery grows with R under crashes;"
               " [D] flooding cuts messages and rounds at dense interest;"
               " [E] coarsening keeps delivery, may raise false"
               " reception; [F] digest recovery repairs loss-induced"
               " misses at extra message cost.\n";
  json.write();
  return 0;
}
