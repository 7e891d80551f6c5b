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

#include <functional>
#include <memory>

#include "baselines/baseline.hpp"
#include "pmcast/view_provider.hpp"

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

class TreecastNode final : public BaselineNode {
 public:
  using Directory = std::function<ProcessId(AddrId)>;

  TreecastNode(Runtime& rt, ProcessId pid, TreecastConfig config,
               Address self, Subscription subscription,
               const ViewProvider& views, Directory directory);

  void multicast(Event event);

  const Address& address() const noexcept { return self_; }

 protected:
  void on_message(ProcessId from, const MessagePtr& msg) override;

 private:
  /// Forwards to one delegate per interested foreign row at every depth in
  /// [start_depth, d]; the own-subtree branch is handled by continuing the
  /// loop locally.
  void forward_from(const std::shared_ptr<const Event>& event,
                    std::size_t start_depth);

  TreecastConfig config_;
  Address self_;
  AddrId self_id_ = kNoAddr;
  const ViewProvider* views_;
  Directory directory_;
};

}  // namespace pmc
