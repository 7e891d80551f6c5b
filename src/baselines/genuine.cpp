#include "baselines/genuine.hpp"

#include "common/contract.hpp"

namespace pmc {

GenuineNode::GenuineNode(Runtime& rt, ProcessId pid, GenuineConfig config,
                         Subscription subscription, std::vector<Peer> view)
    : SubscriberNode(rt, pid, std::move(subscription)),
      config_(config),
      view_(std::move(view)),
      estimator_(config.pittel_c) {
  PMC_EXPECTS(config_.fanout >= 1);
  PMC_EXPECTS(config_.period > 0);
}

void GenuineNode::multicast(Event event) {
  PMC_EXPECTS(alive());
  auto ev = std::make_shared<const Event>(std::move(event));
  originate(*ev);
  buffer(std::move(ev), 0);
}

void GenuineNode::on_message(ProcessId /*from*/, const MessagePtr& msg) {
  if (msg->kind != MsgKind::GenuineGossip) return;
  const auto& gossip = static_cast<const GenuineGossipMsg&>(*msg);
  if (accept(*gossip.event)) buffer(gossip.event, gossip.round);
}

void GenuineNode::on_period() {
  auto it = buffer_.begin();
  while (it != buffer_.end()) {
    const std::vector<ProcessId>& interested = it->interested;
    // Round bound: scale the group-size hint by the locally observed
    // matching rate (the process has no global interest knowledge).
    const double local_rate =
        view_.empty() ? 0.0
                      : static_cast<double>(interested.size()) /
                            static_cast<double>(view_.size());
    const double n_est =
        static_cast<double>(config_.group_size_hint) * local_rate;
    const double bound = estimator_.faulty(
        n_est, static_cast<double>(config_.fanout), config_.env_estimate);

    if (static_cast<double>(it->round) >= bound || interested.empty()) {
      it = buffer_.erase(it);
      continue;
    }
    ++it->round;
    const std::size_t picks =
        std::min<std::size_t>(config_.fanout, interested.size());
    rng().sample_without_replacement(interested.size(), picks, picks_);
    targets_.clear();
    for (const auto ci : picks_) targets_.push_back(interested[ci]);
    // The picks get identical copies: one shared payload, one fan-out.
    auto m = std::make_shared<GenuineGossipMsg>();
    m->event = it->event;
    m->round = it->round;
    send_multi(targets_, m);
    count_sent(targets_.size());
    ++it;
  }
  if (buffer_.empty()) disarm_periodic();
}

void GenuineNode::buffer(std::shared_ptr<const Event> event,
                         std::uint32_t round) {
  Entry& entry = buffer_.emplace_back();
  // Interested view members only — the defining property of a genuine
  // multicast: uninterested processes are never contacted.
  for (const Peer& peer : view_) {
    if (peer.pid != id() && peer.subscription.match(*event))
      entry.interested.push_back(peer.pid);
  }
  entry.event = std::move(event);
  entry.round = round;
  if (!periodic_armed()) arm_periodic(config_.period);
}

}  // namespace pmc
