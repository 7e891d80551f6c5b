#include "harness/experiment.hpp"

#include <cstdlib>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "baselines/flooding.hpp"
#include "baselines/genuine.hpp"
#include "baselines/treecast.hpp"
#include "common/contract.hpp"
#include "harness/scenario.hpp"
#include "pmcast/node.hpp"

namespace pmc {

std::size_t ExperimentConfig::group_size() const {
  std::size_t n = 1;
  for (std::size_t i = 0; i < d; ++i) n *= a;
  return n;
}

TreeAnalysisParams ExperimentConfig::analysis_params() const {
  TreeAnalysisParams p;
  p.a = a;
  p.d = d;
  p.r = r;
  p.fanout = static_cast<double>(fanout);
  p.pd = pd;
  p.env.loss = loss;
  p.env.crash = crash_fraction;
  p.pittel_c = pittel_c;
  return p;
}

void ExperimentConfig::validate() const {
  PMC_EXPECTS(a >= 1 && d >= 1 && r >= 1);
  // Arities are AddrComponent-sized; larger values would silently truncate
  // when the address space is built.
  PMC_EXPECTS(a <= std::numeric_limits<AddrComponent>::max());
  PMC_EXPECTS(fanout >= 1);
  PMC_EXPECTS(runs >= 1);
  PMC_EXPECTS(pd >= 0.0 && pd <= 1.0);
  PMC_EXPECTS(cluster_jitter >= 0.0 && cluster_jitter <= 1.0);
  PMC_EXPECTS(loss >= 0.0 && loss < 1.0);
  PMC_EXPECTS(crash_fraction >= 0.0 && crash_fraction < 1.0);
  PMC_EXPECTS(period > 0);
  PMC_EXPECTS(pittel_c >= 0.0);
  PMC_EXPECTS(leaf_flood_density >= 0.0);
}

PmcastConfig ExperimentConfig::pmcast_config() const {
  PmcastConfig c;
  c.tree.depth = d;
  c.tree.redundancy = r;
  c.fanout = fanout;
  c.period = period;
  c.pittel_c = pittel_c;
  c.env.loss = loss;
  c.env.crash = crash_fraction;
  c.tuning_threshold = tuning_threshold;
  c.local_interest_shortcut = local_interest_shortcut;
  c.leaf_flood_density = leaf_flood_density;
  c.recovery_rounds = recovery_rounds;
  return c;
}

namespace {

/// Shared per-configuration state reused across runs: the member population,
/// its intern state, its tree, and the interned-address -> pid directory.
struct Population {
  std::vector<Member> members;
  /// Declared before the tree, which holds a reference into it (protocol
  /// nodes intern their own address through the tree's tables).
  Interns interns;
  std::unique_ptr<GroupTree> tree;
  /// Dense AddrId -> pid directory; kNoProcess for foreign ids.
  std::vector<ProcessId> pid_by_id;

  explicit Population(const ExperimentConfig& config, bool build_tree) {
    config.validate();
    // detlint:allow(rng-discipline) master-seed root for population synthesis; no Runtime exists yet
    Rng rng(config.seed);
    const auto space = AddressSpace::regular(
        static_cast<AddrComponent>(config.a), config.d);
    members = config.clustered
                  ? clustered_interest_members(space, config.pd,
                                               config.cluster_jitter, rng)
                  : uniform_interest_members(space, config.pd, rng);
    interns.reserve(members.size(), config.d);
    if (build_tree) {
      TreeConfig tc;
      tc.depth = config.d;
      tc.redundancy = config.r;
      GroupTreeOptions opts;
      opts.coarsen_depth_leq = config.coarsen_depth_leq;
      tree = std::make_unique<GroupTree>(tc, members, interns, opts);
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      const AddrId id = interns.addrs.intern(members[i].address);
      if (pid_by_id.size() <= id) pid_by_id.resize(id + 1, kNoProcess);
      pid_by_id[id] = static_cast<ProcessId>(i);
    }
  }

  Directory directory_fn() const {
    return [this](AddrId id) {
      return id < pid_by_id.size() ? pid_by_id[id] : kNoProcess;
    };
  }
};

/// GroupTree::tables_for, looked up again only when the member's leaf
/// subgroup differs from the previous member's: the tables depend on the
/// leaf prefix alone. Any member order gives the same tables; the order
/// only decides how often the lookup reruns.
class LeafTables {
 public:
  explicit LeafTables(const GroupTree& tree) : tree_(tree) {}

  std::span<const DepthView* const> operator()(const Address& self) {
    if (last_ == nullptr ||
        last_->common_prefix_length(self) + 1 < self.depth())
      tables_ = tree_.tables_for(self);
    last_ = &self;
    return tables_;
  }

 private:
  const GroupTree& tree_;
  const Address* last_ = nullptr;
  std::vector<const DepthView*> tables_;
};

/// Counts delivery/reception over the node collection after a run and adds
/// the run's metrics to `out`. NodeT is a SubscriberNode.
template <typename NodeT>
void finish_run(ExperimentResult& out,
                const std::vector<std::unique_ptr<NodeT>>& nodes,
                const Event& event, ProcessId publisher, const Runtime& rt,
                SimTime period) {
  std::size_t interested = 0;
  std::size_t interested_delivered = 0;
  std::size_t uninterested = 0;
  std::size_t uninterested_received = 0;
  for (const auto& node : nodes) {
    if (!node->alive()) continue;  // crashed processes leave both sides
    const bool wants = node->interested_in(event);
    if (wants) {
      ++interested;
      if (node->has_delivered(event.id())) ++interested_delivered;
    } else if (node->id() != publisher) {
      ++uninterested;
      if (node->has_received(event.id())) ++uninterested_received;
    }
  }
  out.delivery.add(interested == 0
                       ? 1.0
                       : static_cast<double>(interested_delivered) /
                             static_cast<double>(interested));
  out.false_reception.add(uninterested == 0
                              ? 0.0
                              : static_cast<double>(uninterested_received) /
                                    static_cast<double>(uninterested));
  out.rounds.add(static_cast<double>(rt.now()) / static_cast<double>(period));
  out.messages_per_process.add(
      static_cast<double>(rt.network().counters().sent) /
      static_cast<double>(nodes.size()));
  out.interested_fraction.add(
      static_cast<double>(interested) /
      static_cast<double>(std::max<std::size_t>(1, nodes.size())));
}

template <typename MakeNodes, typename Publish>
ExperimentResult run_experiment_loop(const ExperimentConfig& config,
                                     MakeNodes&& make_nodes,
                                     Publish&& publish) {
  ExperimentResult out;
  // detlint:allow(rng-discipline) xor-labeled root that seeds each run's Runtime; predates make_stream
  Rng run_rng(config.seed ^ 0xabcdef0123456789ULL);
  for (std::size_t run = 0; run < config.runs; ++run) {
    NetworkConfig net;
    net.loss_probability = config.loss;
    Runtime rt(net, run_rng.next_u64());
    rt.network().reserve_range(0, config.group_size());

    auto nodes = make_nodes(rt);

    // Crash injection: f = τ n victims, uniform over the run horizon.
    const auto f = static_cast<std::size_t>(
        config.crash_fraction * static_cast<double>(nodes.size()));
    if (f > 0) {
      const auto victims =
          run_rng.sample_without_replacement(nodes.size(), f);
      std::vector<Process*> procs;
      procs.reserve(f);
      for (const auto v : victims) procs.push_back(nodes[v].get());
      rt.schedule_crashes(procs, 40 * config.period);
    }

    const auto publisher = static_cast<ProcessId>(
        run_rng.next_below(nodes.size()));
    const Event event = make_uniform_event(publisher, run, run_rng);
    publish(*nodes[publisher], event);

    rt.run_until_idle();

    finish_run(out, nodes, event, publisher, rt, config.period);
  }
  return out;
}

}  // namespace

ExperimentResult run_pmcast_experiment(const ExperimentConfig& config) {
  const Population pop(config, /*build_tree=*/true);
  const PmcastConfig node_config = config.pmcast_config();

  return run_experiment_loop(
      config,
      [&](Runtime& rt) {
        std::vector<std::unique_ptr<PmcastNode>> nodes;
        nodes.reserve(pop.members.size());
        LeafTables tables(*pop.tree);
        for (std::size_t i = 0; i < pop.members.size(); ++i) {
          nodes.push_back(std::make_unique<PmcastNode>(
              rt, static_cast<ProcessId>(i), node_config,
              pop.members[i].address, pop.members[i].subscription,
              tables(pop.members[i].address), pop.directory_fn()));
        }
        return nodes;
      },
      [](PmcastNode& node, const Event& e) { node.pmcast(e); });
}

ExperimentResult run_flooding_experiment(const ExperimentConfig& config) {
  const Population pop(config, /*build_tree=*/false);
  FloodingConfig fc;
  fc.fanout = config.fanout;
  fc.period = config.period;
  fc.pittel_c = config.pittel_c;
  fc.env_estimate.loss = config.loss;
  fc.env_estimate.crash = config.crash_fraction;

  auto peers = std::make_shared<std::vector<ProcessId>>();
  for (std::size_t i = 0; i < pop.members.size(); ++i)
    peers->push_back(static_cast<ProcessId>(i));

  return run_experiment_loop(
      config,
      [&](Runtime& rt) {
        std::vector<std::unique_ptr<FloodingNode>> nodes;
        nodes.reserve(pop.members.size());
        for (std::size_t i = 0; i < pop.members.size(); ++i) {
          nodes.push_back(std::make_unique<FloodingNode>(
              rt, static_cast<ProcessId>(i), fc,
              pop.members[i].subscription, peers));
        }
        return nodes;
      },
      [](FloodingNode& node, const Event& e) { node.broadcast(e); });
}

ExperimentResult run_genuine_experiment(const ExperimentConfig& config,
                                        std::size_t view_size) {
  // A single node's view may end up empty; every node's cannot.
  PMC_EXPECTS(view_size >= 1);
  const Population pop(config, /*build_tree=*/false);
  GenuineConfig gc;
  gc.fanout = config.fanout;
  gc.period = config.period;
  gc.pittel_c = config.pittel_c;
  gc.env_estimate.loss = config.loss;
  gc.env_estimate.crash = config.crash_fraction;
  gc.group_size_hint = pop.members.size();

  // Partial views are fixed per configuration (same seed), mirroring a
  // converged lpbcast-style membership.
  // detlint:allow(rng-discipline) xor-labeled per-config view stream; fixed across runs by design
  Rng view_rng(config.seed ^ 0x7777777777777777ULL);
  std::vector<std::vector<GenuineNode::Peer>> views(pop.members.size());
  for (std::size_t i = 0; i < pop.members.size(); ++i) {
    const auto picks = view_rng.sample_without_replacement(
        pop.members.size(), std::min(view_size, pop.members.size()));
    for (const auto p : picks) {
      if (p == i) continue;
      views[i].push_back(GenuineNode::Peer{
          static_cast<ProcessId>(p), pop.members[p].subscription});
    }
  }

  return run_experiment_loop(
      config,
      [&](Runtime& rt) {
        std::vector<std::unique_ptr<GenuineNode>> nodes;
        nodes.reserve(pop.members.size());
        for (std::size_t i = 0; i < pop.members.size(); ++i) {
          nodes.push_back(std::make_unique<GenuineNode>(
              rt, static_cast<ProcessId>(i), gc,
              pop.members[i].subscription, views[i]));
        }
        return nodes;
      },
      [](GenuineNode& node, const Event& e) { node.multicast(e); });
}

ExperimentResult run_treecast_experiment(const ExperimentConfig& config) {
  const Population pop(config, /*build_tree=*/true);
  TreecastConfig tc;
  tc.tree.depth = config.d;
  tc.tree.redundancy = config.r;

  return run_experiment_loop(
      config,
      [&](Runtime& rt) {
        std::vector<std::unique_ptr<TreecastNode>> nodes;
        nodes.reserve(pop.members.size());
        LeafTables tables(*pop.tree);
        for (std::size_t i = 0; i < pop.members.size(); ++i) {
          nodes.push_back(std::make_unique<TreecastNode>(
              rt, static_cast<ProcessId>(i), tc, pop.members[i].address,
              pop.members[i].subscription, tables(pop.members[i].address),
              pop.directory_fn()));
        }
        return nodes;
      },
      [](TreecastNode& node, const Event& e) { node.multicast(e); });
}

std::size_t env_size_t(const char* name, std::size_t fallback) {
  // detlint:allow(banned-source) run-scope knob (PMCAST_*) read before any Runtime exists; never feeds draws or fingerprints
  const char* value = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  if (value == nullptr || *value == '\0') return fallback;
  const auto parsed = parse_count(value);
  if (!parsed || *parsed < 1)
    throw std::invalid_argument("bad " + std::string(name) +
                                ": expected a positive integer, got '" +
                                value + "'");
  return *parsed;
}

}  // namespace pmc
