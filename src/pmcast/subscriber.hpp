// The receive side every protocol node shares (pmcast and the three
// baselines: flooding, genuine, treecast): a subscription, the seen and
// delivered sets that make delivery exactly-once under duplication and
// reordering (Fig. 3's HPDELIVER, with whole-lifetime dedup), the deliver
// handler and the per-node counters. Each protocol adds only how it
// forwards.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>

#include "event/event.hpp"
#include "filter/subscription.hpp"
#include "sim/runtime.hpp"

namespace pmc {

class SubscriberNode : public Process {
 public:
  using DeliverHandler = std::function<void(const Event&)>;

  /// HPDELIVER callback; invoked at most once per event.
  void set_deliver_handler(DeliverHandler handler) {
    deliver_ = std::move(handler);
  }

  bool interested_in(const Event& e) const { return subscription_.match(e); }
  bool has_received(const EventId& id) const { return seen_.count(id) != 0; }
  bool has_delivered(const EventId& id) const {
    return delivered_.count(id) != 0;
  }

  struct Stats {
    /// Distinct events received off the wire (pmcast: by gossip or by
    /// recovery payload).
    std::uint64_t received = 0;
    std::uint64_t delivered = 0;  ///< events handed to the application
    /// Messages handed to the network: gossip copies, one per target
    /// (pmcast, flooding, genuine), or subtree forwards (treecast).
    std::uint64_t sent = 0;
    /// Duplicates discarded by the seen-set. Under the network's
    /// duplication injector this is the exactly-once audit trail: every
    /// duplicate the wire manufactures lands here, never in `delivered`.
    std::uint64_t dup_suppressed = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 protected:
  SubscriberNode(Runtime& rt, ProcessId pid, Subscription subscription)
      : Process(rt, pid), subscription_(std::move(subscription)) {}

  /// The originator's copy: marks it seen and delivers it if interested.
  void originate(const Event& e) {
    seen_.insert(e.id());
    deliver_if_interested(e);
  }

  /// A copy off the wire: false (counted as dup_suppressed) when the event
  /// was seen before; otherwise counts it received, delivers it if
  /// interested and returns true so the caller forwards it.
  bool accept(const Event& e) {
    if (!seen_.insert(e.id()).second) {
      ++stats_.dup_suppressed;
      return false;
    }
    ++stats_.received;
    deliver_if_interested(e);
    return true;
  }

  void count_sent(std::size_t n) { stats_.sent += n; }

 private:
  void deliver_if_interested(const Event& e) {
    if (!subscription_.match(e)) return;
    if (!delivered_.insert(e.id()).second) return;
    ++stats_.delivered;
    if (deliver_) deliver_(e);
  }

  Subscription subscription_;
  DeliverHandler deliver_;
  std::unordered_set<EventId, EventIdHash> seen_;
  std::unordered_set<EventId, EventIdHash> delivered_;
  Stats stats_;
};

}  // namespace pmc
