// Sensor grid: interests correlated with network locality — the favourable
// case for pmcast's tree (subgroups map to subnetworks, and nearby monitors
// care about nearby sensors).
//
// A 6x6x6 deployment: each leaf subgroup is a building floor whose monitors
// subscribe to temperature alarms for their own zone (plus a few roaming
// supervisors with wildcard interests). Alarms for one zone stay almost
// entirely inside that subtree: the example contrasts messages per zone
// alarm against a group-wide alarm.
#include <iostream>

#include "pmcast/pmcast.hpp"

int main() {
  using namespace pmc;

  const std::size_t kA = 6;
  const auto space =
      AddressSpace::regular(static_cast<AddrComponent>(kA), 3);
  Rng rng(12);

  // Zone id = index of the leaf subgroup (building floor).
  std::vector<Member> members;
  std::size_t supervisors = 0;
  for (const auto& address : space.enumerate()) {
    const std::size_t zone =
        address.component(0) * kA + address.component(1);
    if (rng.next_below(50) == 0) {
      // Roaming supervisor: sees every critical alarm anywhere.
      members.push_back(
          Member{address, Subscription::parse("severity >= 2")});
      ++supervisors;
    } else {
      members.push_back(Member{
          address, Subscription::parse(
                       "zone == " + std::to_string(zone) +
                       " && temperature > 45.0")});
    }
  }

  TreeConfig tree_config;
  tree_config.depth = 3;
  tree_config.redundancy = 3;
  Interns interns;
  GroupTree tree(tree_config, members, interns);

  Runtime runtime(NetworkConfig{}, 5);
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

  std::size_t delivered = 0;
  std::vector<std::unique_ptr<PmcastNode>> nodes;
  for (std::size_t i = 0; i < members.size(); ++i) {
    nodes.push_back(std::make_unique<PmcastNode>(
        runtime, static_cast<ProcessId>(i), config, members[i].address,
        members[i].subscription, tree.tables_for(members[i].address),
        lookup));
    nodes.back()->set_deliver_handler(
        [&delivered](const Event&) { ++delivered; });
  }

  std::cout << members.size() << " sensors/monitors, " << supervisors
            << " roaming supervisors\n\n";

  // Zone-local alarm: only floor 7's monitors (and supervisors) care.
  Event local_alarm(EventId{1, 1});
  local_alarm.with("zone", 7).with("temperature", 51.5).with("severity", 1);
  runtime.network().reset_counters();
  delivered = 0;
  nodes[0]->pmcast(local_alarm);
  runtime.run_until_idle();
  const auto local_msgs = runtime.network().counters().sent;
  std::cout << "Zone-7 alarm:   " << delivered << " deliveries, "
            << local_msgs << " messages\n";

  // Group-wide critical alarm: everyone with severity filters + every zone
  // monitor whose zone matches... here zone 20 + severity 2 reaches zone
  // monitors of zone 20 and all supervisors.
  Event critical(EventId{1, 2});
  critical.with("zone", 20).with("temperature", 63.0).with("severity", 3);
  runtime.network().reset_counters();
  delivered = 0;
  nodes[100]->pmcast(critical);
  runtime.run_until_idle();
  std::cout << "Critical alarm: " << delivered << " deliveries, "
            << runtime.network().counters().sent << " messages\n";

  std::cout << "\nLocality: a zone alarm touches one subtree (plus the"
               " root delegates), so its message count stays a small"
               " fraction of the " << members.size() << "-process group.\n";
  return 0;
}
