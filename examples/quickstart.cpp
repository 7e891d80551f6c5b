// Quickstart: the smallest complete pmcast program.
//
// Nine processes in a 3x3 tree subscribe to ranges of an integer attribute
// "b"; one process multicasts two events, and only matching subscribers
// deliver them. Walks through the full public API:
//   AddressSpace/Member -> GroupTree -> Runtime -> PmcastNode -> pmcast().
#include <iostream>

#include "pmcast/pmcast.hpp"

int main() {
  using namespace pmc;

  // 1. A regular address space: depth 2, three subgroups of three.
  const auto space = AddressSpace::regular(3, 2);

  // 2. Members with content-based subscriptions (textual interest language).
  std::vector<Member> members;
  const char* interests[] = {
      "b < 10",           "b >= 10 && b < 20", "b >= 20",
      "b == 15",          "true",              "b > 5 && b < 25",
      "e == \"alert\"",   "b >= 20 || b < 5",  "false",
  };
  std::size_t idx = 0;
  for (const auto& address : space.enumerate())
    members.push_back(Member{address, Subscription::parse(interests[idx++])});

  // 3. The membership tree: every subgroup elects R = 2 delegates.
  TreeConfig tree_config;
  tree_config.depth = 2;
  tree_config.redundancy = 2;
  Interns interns;
  GroupTree tree(tree_config, members, interns);

  // 4. Simulation runtime with 5% message loss.
  NetworkConfig net;
  net.loss_probability = 0.05;
  Runtime runtime(net, /*seed=*/2024);

  // 5. One pmcast node per process; the directory resolves interned
  //    address ids to simulated process ids.
  std::vector<ProcessId> directory;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const AddrId id = interns.addrs.intern(members[i].address);
    if (directory.size() <= id) directory.resize(id + 1, kNoProcess);
    directory[id] = static_cast<ProcessId>(i);
  }
  const auto lookup = [&directory](AddrId id) {
    return id < directory.size() ? directory[id] : kNoProcess;
  };

  PmcastConfig config;
  config.tree = tree_config;
  config.fanout = 3;

  std::vector<std::unique_ptr<PmcastNode>> nodes;
  for (std::size_t i = 0; i < members.size(); ++i) {
    nodes.push_back(std::make_unique<PmcastNode>(
        runtime, static_cast<ProcessId>(i), config, members[i].address,
        members[i].subscription, tree.tables_for(members[i].address),
        lookup));
    nodes.back()->set_deliver_handler([i, &members](const Event& e) {
      std::cout << "  " << members[i].address.to_string() << " delivered "
                << e.to_string() << "\n";
    });
  }

  // 6. Multicast. Only interested processes deliver; uninterested ones are
  //    (with high probability) never even contacted.
  Event fifteen(EventId{0, 1});
  fifteen.with("b", 15);
  std::cout << "Publishing " << fifteen.to_string() << ":\n";
  nodes[0]->pmcast(fifteen);
  runtime.run_until_idle();

  Event alert(EventId{0, 2});
  alert.with("b", 3).with("e", "alert");
  std::cout << "Publishing " << alert.to_string() << ":\n";
  nodes[4]->pmcast(alert);
  runtime.run_until_idle();

  std::cout << "Messages on the wire: "
            << runtime.network().counters().sent << " sent, "
            << runtime.network().counters().lost << " lost to the 5% loss\n";
  return 0;
}
