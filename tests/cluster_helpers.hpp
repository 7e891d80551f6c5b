// Shared helpers for tests that spin up a full pmcast cluster in the
// simulator: builds the population, the intern state, the group tree, the
// directory and one PmcastNode per process.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "harness/workload.hpp"
#include "pmcast/node.hpp"

namespace pmc::testing {

/// A dense AddrId -> pid table over `members`: member i at pid base + i.
inline std::vector<ProcessId> pid_table(Interns& interns,
                                        const std::vector<Member>& members,
                                        ProcessId base = 0) {
  std::vector<ProcessId> pids;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const AddrId id = interns.addrs.intern(members[i].address);
    if (pids.size() <= id) pids.resize(id + 1, kNoProcess);
    pids[id] = base + static_cast<ProcessId>(i);
  }
  return pids;
}

/// The Directory reading `pids`, which must outlive it.
inline Directory lookup(const std::vector<ProcessId>& pids) {
  return [&pids](AddrId id) {
    return id < pids.size() ? pids[id] : kNoProcess;
  };
}

struct Cluster {
  std::vector<Member> members;
  // Declared before the tree, which holds a reference into it.
  std::unique_ptr<Interns> interns;
  std::unique_ptr<GroupTree> tree;
  std::unique_ptr<Runtime> runtime;
  std::vector<ProcessId> pid_by_id;  ///< dense AddrId -> pid directory
  std::vector<std::unique_ptr<PmcastNode>> nodes;

  Directory directory_fn() const { return lookup(pid_by_id); }

  /// Pid of an address that is known to be in the cluster.
  ProcessId pid_of(const Address& a) const {
    const AddrId id = interns->addrs.find(a);
    return id == kNoAddr ? kNoProcess : pid_by_id.at(id);
  }

  /// Whether member `a` is a delegate of one of its subgroups above the
  /// leaf: it is listed in the row for its depth-i subgroup, i in [1, d-1],
  /// in the depth-i table.
  bool is_delegate(const Address& a) const {
    const AddrId id = interns->addrs.find(a);
    for (std::size_t depth = 1; depth < a.depth(); ++depth) {
      const DepthView& dv = tree->view_at(a.prefix(depth - 1));
      const auto ids = dv.delegates(dv.find_index(a.component(depth - 1)));
      if (std::ranges::find(ids, id) != ids.end()) return true;
    }
    return false;
  }
};

inline Cluster make_cluster(std::size_t a, std::size_t d, std::size_t r,
                            double pd, PmcastConfig config,
                            double loss = 0.0, std::uint64_t seed = 1) {
  Cluster c;
  Rng rng(seed);
  const auto space =
      AddressSpace::regular(static_cast<AddrComponent>(a), d);
  c.members = uniform_interest_members(space, pd, rng);

  TreeConfig tc;
  tc.depth = d;
  tc.redundancy = r;
  c.interns = std::make_unique<Interns>();
  c.interns->reserve(c.members.size(), d);
  c.tree = std::make_unique<GroupTree>(tc, c.members, *c.interns);

  NetworkConfig net;
  net.loss_probability = loss;
  c.runtime = std::make_unique<Runtime>(net, seed ^ 0x5a5a5a5aULL);

  config.tree = tc;
  c.pid_by_id = pid_table(*c.interns, c.members);
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    c.nodes.push_back(std::make_unique<PmcastNode>(
        *c.runtime, static_cast<ProcessId>(i), config,
        c.members[i].address, c.members[i].subscription,
        c.tree->tables_for(c.members[i].address), c.directory_fn()));
  }
  return c;
}

inline PmcastConfig default_config() {
  PmcastConfig config;
  config.fanout = 3;
  config.period = sim_ms(100);
  return config;
}

}  // namespace pmc::testing
