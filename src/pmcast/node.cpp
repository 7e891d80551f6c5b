#include "pmcast/node.hpp"

#include <algorithm>
#include <numeric>

#include "common/contract.hpp"

namespace pmc {

PmcastNode::PmcastNode(Runtime& rt, ProcessId pid, PmcastConfig config,
                       const Address& self, Subscription subscription,
                       std::span<const DepthView* const> tables,
                       Directory directory)
    : SubscriberNode(rt, pid, std::move(subscription)),
      config_(config),
      directory_(std::move(directory)),
      estimator_(config.pittel_c) {
  config_.validate();
  PMC_EXPECTS(self.depth() == config_.tree.depth);
  PMC_EXPECTS(directory_ != nullptr);
  PMC_EXPECTS(tables.size() == config_.tree.depth);
  depths_.resize(tables.size());
  for (std::size_t i = 0; i < tables.size(); ++i) {
    PMC_EXPECTS(tables[i] != nullptr);
    PMC_EXPECTS(&tables[i]->interns() == &tables[0]->interns());
    depths_[i].table = tables[i];
  }
  self_id_ = interns().addrs.intern(self);
}

void PmcastNode::pmcast(Event event) {
  PMC_EXPECTS(alive());
  auto ev = std::make_shared<const Event>(std::move(event));
  ++gossip_stats_.published;
  originate(*ev);

  // Sec. 3.2: start at the root, but skip depths where the interest is
  // confined to our own subtree — the event is of "local" interest there.
  std::size_t depth = 1;
  if (config_.local_interest_shortcut) {
    while (depth < config_.tree.depth) {
      const DepthView& view = table(depth);
      const AddrComponent own_infix =
          interns().addrs.component(self_id_, depth - 1);
      bool foreign_interest = false;
      for (std::size_t i = 0; i < view.size(); ++i) {
        if (!view.alive(i) || view.infix(i) == own_infix) continue;
        if (view.interests(i).match(*ev)) {
          foreign_interest = true;
          break;
        }
      }
      if (foreign_interest) break;
      ++depth;
    }
  }

  buffer_event(depth, fresh_entry(depth, std::move(ev)));
}

void PmcastNode::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->kind) {
    case MsgKind::EventDigest:
      handle_digest(from, static_cast<const EventDigestMsg&>(*msg));
      return;
    case MsgKind::EventRequest:
      handle_request(from, static_cast<const EventRequestMsg&>(*msg));
      return;
    case MsgKind::EventPayload:
      handle_payload(static_cast<const EventPayloadMsg&>(*msg));
      return;
    case MsgKind::Gossip:
      break;
    default:
      return;
  }
  const auto& gossip = static_cast<const GossipMsg&>(*msg);
  PMC_EXPECTS(gossip.event != nullptr);
  PMC_EXPECTS(gossip.depth >= 1 && gossip.depth <= config_.tree.depth);

  if (piggyback_sink_ && gossip.has_piggyback())
    piggyback_sink_(gossip.sender, *gossip.piggyback);

  // Fig. 3 lines 20-23, with whole-lifetime dedup (SubscriberNode::accept).
  if (!accept(*gossip.event)) return;
  if (gossip.no_regossip) {
    // Leaf flood (Sec. 6): the sender already addressed every interested
    // neighbor, so there is nothing left to gossip — keep the payload only
    // for the optional digest-recovery phase.
    retain_for_recovery(gossip.event);
    if (!store_.empty() && !periodic_armed()) arm_periodic(config_.period);
    return;
  }
  Entry entry;
  entry.event = gossip.event;
  entry.rate = gossip.rate;
  entry.round = gossip.round;
  buffer_event(gossip.depth, std::move(entry));
}

void PmcastNode::on_period() {
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth)
    gossip_entries_at(depth);
  run_recovery_round();
  if (buffers_empty() && store_.empty()) disarm_periodic();
}

void PmcastNode::gossip_entries_at(std::size_t depth) {
  auto& entries = depths_[depth - 1].entries;
  if (entries.empty()) return;

  // Re-evaluated every period and depth: with an adaptive env source the
  // Eq. 11 bound follows the live ε/τ estimate instead of the frozen prior.
  const EnvParams env = live_env();
  const DepthView& view = table(depth);
  std::vector<Entry> promoted;
  auto it = entries.begin();
  while (it != entries.end()) {
    Entry& entry = *it;
    // The entry's list stays current until the table changes (a live view
    // under churn); it is then rebuilt from the table as it is now.
    if (entry.built_at != view.mutations()) candidates_at(depth, entry);
    const auto candidates = entry.candidate_list();

    // Sec. 6 mechanism: dense interest at the leaf depth — flood the
    // subgroup once instead of running probabilistic rounds.
    if (depth == config_.tree.depth && entry.round == 0 &&
        entry.rate >= config_.leaf_flood_density) {
      pick_scratch_.resize(candidates.size());
      std::iota(pick_scratch_.begin(), pick_scratch_.end(), std::size_t{0});
      send_gossip(depth, entry, /*flood=*/true);
      ++gossip_stats_.leaf_floods;
      retain_for_recovery(std::move(entry.event));
      it = entries.erase(it);
      continue;
    }
    // Fig. 3 line 7: the round bound uses the rate propagated with the
    // event, so every process of the subgroup applies the same bound.
    //
    // Discount semantics (Eq. 11 / Fig. 3 line 7 audit): Pittel's T(n, F)
    // is applied to the *interested* sub-population, so both arguments are
    // scaled by the matching rate first — n = |view| * rate is GETRATE's
    // audience, and F * rate is the expected number of the F drawn targets
    // that are interested (Fig. 3 lines 10-14 draw from the whole view and
    // filter, so the effective fanout towards the audience is F * rate).
    // faulty() then applies Eq. 11's environment discount on top,
    // multiplying both by (1-ε)(1-τ): Tf(n, F) = T(n(1-ε)(1-τ),
    // F(1-ε)(1-τ)). The two discounts are deliberate and multiplicative;
    // tests/rounds_test.cpp locks the composition against hand-computed
    // paper values.
    const double interested =
        static_cast<double>(candidates.size()) * entry.rate;
    const double bound = estimator_.faulty(
        interested, static_cast<double>(config_.fanout) * entry.rate, env);

    if (static_cast<double>(entry.round) < bound) {
      // Fig. 3 lines 8-14: one more round at this depth.
      ++entry.round;
      ++gossip_stats_.rounds_run;
      const std::size_t picks =
          std::min<std::size_t>(config_.fanout, candidates.size());
      rng().sample_without_replacement(candidates.size(), picks,
                                       pick_scratch_);
      send_gossip(depth, entry, /*flood=*/false);
      ++it;
    } else {
      // Fig. 3 lines 15-18: retire here, promote to the next depth.
      // Retiring after zero rounds with an interested audience means the
      // discounted bound collapsed (see RoundEstimator::faulty) — count
      // it, since the event just skipped this depth entirely.
      if (entry.round == 0 && interested > 0.0)
        ++gossip_stats_.bound_collapsed;
      if (depth < config_.tree.depth) {
        promoted.push_back(fresh_entry(depth + 1, std::move(entry.event)));
      } else {
        retain_for_recovery(std::move(entry.event));
      }
      it = entries.erase(it);
    }
  }
  for (auto& entry : promoted) buffer_event(depth + 1, std::move(entry));
}

void PmcastNode::send_gossip(std::size_t depth, const Entry& entry,
                             bool flood) {
  const auto candidates = entry.candidate_list();
  std::shared_ptr<const RowBatch> batch;  // the current run's rows
  const auto send_run = [&] {
    if (target_scratch_.empty()) return;
    auto msg = std::make_shared<GossipMsg>();
    msg->event = entry.event;
    msg->rate = entry.rate;
    msg->round = entry.round;
    msg->depth = static_cast<std::uint32_t>(depth);
    msg->no_regossip = flood;  // the flood addressed everyone interested
    msg->piggyback = std::move(batch);
    if (msg->has_piggyback()) msg->sender = AddrRef(interns(), self_id_);
    send_multi(target_scratch_, msg);  // one transcode, per-target draws
    count_sent(target_scratch_.size());
    target_scratch_.clear();
  };
  for (const auto ci : pick_scratch_) {
    const Candidate& cand = candidates[ci];
    if (!cand.interested()) continue;  // line 13: filter before sending
    const ProcessId target = directory_(cand.id());
    if (target == kNoProcess) continue;
    if (piggyback_source_ && !flood) {  // a flood carries no rows
      auto next = piggyback_source_(cand.id());
      if (next != batch) {
        send_run();
        batch = std::move(next);
      }
    }
    target_scratch_.push_back(target);
  }
  send_run();
}

std::size_t tuning_start_index(const EventId& id, std::size_t n) {
  return n == 0 ? 0 : EventIdHash{}(id) % n;
}

double PmcastNode::candidates_at(std::size_t depth, Entry& entry) const {
  const DepthView& view = table(depth);
  // One slot per live delegate but self. A rebuild keeps the entry's array
  // when the new list fits in the old one's length: a live table mutates
  // far more often than its membership grows.
  std::size_t count = 0;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (!view.alive(i)) continue;
    for (const AddrId id : view.delegates(i))
      if (id != self_id_) ++count;
  }
  if (count > entry.candidate_count)
    entry.candidates = std::make_unique<Candidate[]>(count);
  std::size_t n = 0;
  std::size_t interested = 0;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (!view.alive(i)) continue;
    const bool row_interested = view.interests(i).match(*entry.event);
    for (const AddrId id : view.delegates(i)) {
      if (id == self_id_) continue;
      entry.candidates[n++] = Candidate{id, row_interested};
      if (row_interested) ++interested;
    }
  }
  entry.candidate_count = static_cast<std::uint32_t>(n);
  entry.built_at = view.mutations();

  // Sec. 5.3 tuning: too small an audience starves Pittel's estimate, so
  // pad the interested set up to h members. The padding walks the view
  // circularly from an event-derived start index — deterministic (every
  // process promotes the same members) but unbiased across events, unlike
  // always promoting the first h rows.
  if (config_.tuning_threshold > 0 && interested < config_.tuning_threshold) {
    const std::size_t start = tuning_start_index(entry.event->id(), n);
    for (std::size_t step = 0;
         step < n && interested < config_.tuning_threshold; ++step) {
      Candidate& cand = entry.candidates[(start + step) % n];
      if (cand.interested()) continue;
      cand.mark_interested();
      ++interested;
    }
  }

  return n == 0 ? 0.0
                : static_cast<double>(interested) / static_cast<double>(n);
}

PmcastNode::Entry PmcastNode::fresh_entry(
    std::size_t depth, std::shared_ptr<const Event> event) const {
  Entry entry;
  entry.event = std::move(event);
  entry.rate = candidates_at(depth, entry);
  return entry;
}

void PmcastNode::buffer_event(std::size_t depth, Entry entry) {
  PMC_EXPECTS(depth >= 1 && depth <= config_.tree.depth);
  if (config_.max_buffered > 0 && buffered_total() >= config_.max_buffered) {
    // Degradation cap: the event was already delivered locally if
    // interested; only its re-gossip duty is shed.
    ++gossip_stats_.shed_events;
    return;
  }
  depths_[depth - 1].entries.push_back(std::move(entry));
  if (!periodic_armed()) arm_periodic(config_.period);
}

bool PmcastNode::buffers_empty() const noexcept {
  return std::all_of(depths_.begin(), depths_.end(),
                     [](const Depth& d) { return d.entries.empty(); });
}

std::size_t PmcastNode::buffered_total() const noexcept {
  std::size_t n = 0;
  for (const Depth& d : depths_) n += d.entries.size();
  return n;
}

void PmcastNode::retain_for_recovery(std::shared_ptr<const Event> event) {
  if (config_.recovery_rounds == 0 || event == nullptr) return;
  const EventId id = event->id();  // before the move: evaluation order of
                                   // the subscript and the move is unspecified
  store_[id] = Retained{std::move(event), config_.recovery_rounds};
  if (config_.max_retained > 0 && store_.size() > config_.max_retained) {
    // Deterministic shedding: FlatMap is EventId-ordered, so every replica
    // evicts the same victim (the smallest id — oldest publishers first).
    store_.erase(store_.begin());
    ++gossip_stats_.shed_events;
  }
}

void PmcastNode::run_recovery_round() {
  if (store_.empty()) return;
  const DepthView& leaf = table(config_.tree.depth);

  // Per leaf neighbor, the ids of retained events its interests match.
  std::vector<std::pair<AddrId, std::vector<EventId>>> digests;
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    if (!leaf.alive(i) || leaf.delegates(i).empty()) continue;
    const AddrId neighbor = leaf.first_delegate(i);
    if (neighbor == self_id_) continue;
    std::vector<EventId> ids;
    for (const auto& [id, retained] : store_) {
      if (leaf.interests(i).match(*retained.event)) ids.push_back(id);
    }
    if (!ids.empty()) digests.emplace_back(neighbor, std::move(ids));
  }

  // Digest fanout F among the neighbors with matching retained events.
  const std::size_t picks =
      std::min<std::size_t>(config_.fanout, digests.size());
  if (picks > 0) {
    rng().sample_without_replacement(digests.size(), picks, pick_scratch_);
    for (const auto ci : pick_scratch_) {
      const ProcessId target = directory_(digests[ci].first);
      if (target == kNoProcess) continue;
      auto msg = std::make_shared<EventDigestMsg>();
      msg->ids = std::move(digests[ci].second);
      send(target, std::move(msg));
      ++gossip_stats_.digests_sent;
    }
  }

  for (auto it = store_.begin(); it != store_.end();) {
    if (--it->second.rounds_left == 0)
      it = store_.erase(it);
    else
      ++it;
  }
}

void PmcastNode::handle_digest(ProcessId from, const EventDigestMsg& m) {
  if (config_.recovery_rounds == 0) return;
  std::vector<EventId> missing;
  for (const auto& id : m.ids) {
    if (!has_received(id)) missing.push_back(id);
  }
  if (missing.empty()) return;
  auto request = std::make_shared<EventRequestMsg>();
  request->ids = std::move(missing);
  send(from, std::move(request));
}

void PmcastNode::handle_request(ProcessId from, const EventRequestMsg& m) {
  auto payload = std::make_shared<EventPayloadMsg>();
  for (const auto& id : m.ids) {
    const auto it = store_.find(id);
    if (it != store_.end()) payload->events.push_back(it->second.event);
  }
  if (!payload->events.empty()) send(from, std::move(payload));
}

void PmcastNode::handle_payload(const EventPayloadMsg& m) {
  for (const auto& event : m.events) {
    if (event == nullptr || !accept(*event)) continue;
    ++gossip_stats_.recoveries;
    // Retain the recovered payload so it can serve further requests, and
    // keep the periodic task alive for the digest rounds.
    retain_for_recovery(event);
    if (!periodic_armed() && alive()) arm_periodic(config_.period);
  }
}

}  // namespace pmc
