#include "baselines/treecast.hpp"

#include "common/contract.hpp"

namespace pmc {

TreecastNode::TreecastNode(Runtime& rt, ProcessId pid, TreecastConfig config,
                           Address self, Subscription subscription,
                           const ViewProvider& views, Directory directory)
    : BaselineNode(rt, pid, std::move(subscription)),
      config_(config),
      self_(std::move(self)),
      views_(&views),
      directory_(std::move(directory)) {
  config_.tree.validate();
  PMC_EXPECTS(self_.depth() == config_.tree.depth);
  PMC_EXPECTS(directory_ != nullptr);
  self_id_ = views.interns().addrs.intern(self_);
}

void TreecastNode::multicast(Event event) {
  PMC_EXPECTS(alive());
  auto ev = std::make_shared<const Event>(std::move(event));
  originate(*ev);
  forward_from(ev, 1);
}

void TreecastNode::on_message(ProcessId /*from*/, const MessagePtr& msg) {
  if (msg->kind != MsgKind::Treecast) return;
  const auto& m = static_cast<const TreecastMsg&>(*msg);
  PMC_EXPECTS(m.event != nullptr);
  if (accept(*m.event) && m.depth <= config_.tree.depth)
    forward_from(m.event, m.depth);
}

void TreecastNode::forward_from(const std::shared_ptr<const Event>& event,
                                std::size_t start_depth) {
  for (std::size_t depth = start_depth; depth <= config_.tree.depth;
       ++depth) {
    const DepthView& view = views_->view(self_, depth);
    const AddrComponent own_infix = self_.component(depth - 1);
    for (std::size_t i = 0; i < view.size(); ++i) {
      if (!view.alive(i) || view.delegates(i).empty()) continue;
      if (!view.interests(i).match(*event)) continue;
      if (depth < config_.tree.depth && view.infix(i) == own_infix)
        continue;  // our own branch: we keep descending ourselves
      if (view.first_delegate(i) == self_id_) continue;
      const ProcessId target = directory_(view.first_delegate(i));
      if (target == kNoProcess) continue;
      auto msg = std::make_shared<TreecastMsg>();
      msg->event = event;
      msg->depth = static_cast<std::uint32_t>(depth + 1);
      send(target, std::move(msg));
      count_sent(1);
    }
  }
}

}  // namespace pmc
