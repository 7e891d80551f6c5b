#include "baselines/treecast.hpp"

#include "common/contract.hpp"

namespace pmc {

TreecastNode::TreecastNode(Runtime& rt, ProcessId pid, TreecastConfig config,
                           const Address& self, Subscription subscription,
                           std::span<const DepthView* const> tables,
                           Directory directory)
    : SubscriberNode(rt, pid, std::move(subscription)),
      config_(config),
      tables_(tables.begin(), tables.end()),
      directory_(std::move(directory)) {
  config_.tree.validate();
  PMC_EXPECTS(self.depth() == config_.tree.depth);
  PMC_EXPECTS(directory_ != nullptr);
  PMC_EXPECTS(tables_.size() == config_.tree.depth);
  for (const DepthView* t : tables_) {
    PMC_EXPECTS(t != nullptr);
    PMC_EXPECTS(&t->interns() == &tables_.front()->interns());
  }
  self_id_ = addrs().intern(self);
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
    const DepthView& view = *tables_[depth - 1];
    const AddrComponent own_infix = addrs().component(self_id_, depth - 1);
    targets_.clear();
    for (std::size_t i = 0; i < view.size(); ++i) {
      if (!view.alive(i) || view.delegates(i).empty()) continue;
      if (!view.interests(i).match(*event)) continue;
      if (depth < config_.tree.depth && view.infix(i) == own_infix)
        continue;  // our own branch: we keep descending ourselves
      if (view.first_delegate(i) == self_id_) continue;
      const ProcessId target = directory_(view.first_delegate(i));
      if (target != kNoProcess) targets_.push_back(target);
    }
    if (targets_.empty()) continue;
    // Every target at this depth gets the same copy: one fan-out.
    auto msg = std::make_shared<TreecastMsg>();
    msg->event = event;
    msg->depth = static_cast<std::uint32_t>(depth + 1);
    send_multi(targets_, msg);
    count_sent(targets_.size());
  }
}

}  // namespace pmc
