// Deterministic tree multicast — the Astrolabe-style comparison point of
// the paper's concluding remarks: "multicasting ... performed
// deterministically, with higher throughput than pmcast in 'stable' phases
// of the system, yet a reduced robustness in 'unstable' phases".
//
// Uses the same GroupTree and interest summaries as pmcast, but instead of
// probabilistic gossip each holder forwards the event exactly once to ONE
// delegate of every interested child subgroup, recursively down the tree
// (and to every interested neighbor at the leaves). Message cost is
// near-optimal (≈ interested processes + interior forwards) and delivery is
// certain in a fault-free run — but a single crashed or unreachable
// forwarder silently severs its whole subtree.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "membership/view.hpp"
#include "pmcast/subscriber.hpp"

namespace pmc {

struct TreecastMsg final : MessageBase {
  TreecastMsg() noexcept : MessageBase(MsgKind::Treecast) {}

  std::shared_ptr<const Event> event;
  /// The receiver is responsible for its subtree from this depth on.
  std::uint32_t depth = 0;
};

struct TreecastConfig {
  TreeConfig tree;
};

class TreecastNode final : public SubscriberNode {
 public:
  /// `tables` as PmcastNode takes them: d tables, depth i at index i-1,
  /// bound to one Interns; they must outlive the node.
  TreecastNode(Runtime& rt, ProcessId pid, TreecastConfig config,
               const Address& self, Subscription subscription,
               std::span<const DepthView* const> tables,
               Directory directory);

  void multicast(Event event);

  Address address() const { return addrs().resolve(self_id_); }

 protected:
  void on_message(ProcessId from, const MessagePtr& msg) override;

 private:
  /// Forwards to one delegate per interested foreign row at every depth in
  /// [start_depth, d]; the own-subtree branch is handled by continuing the
  /// loop locally.
  void forward_from(const std::shared_ptr<const Event>& event,
                    std::size_t start_depth);

  AddrInternTable& addrs() const { return tables_.front()->interns().addrs; }

  TreecastConfig config_;
  AddrId self_id_ = kNoAddr;  ///< the node's address, in the tables' Interns
  std::vector<const DepthView*> tables_;  // index 0 <-> depth 1
  Directory directory_;
  std::vector<ProcessId> targets_;  ///< one depth's fan-out, for send_multi
};

}  // namespace pmc
