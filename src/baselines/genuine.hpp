// "Genuine" gossip multicast — filter *before* gossiping (the second
// alternative of the paper's introduction). Every process holds a partial
// random view of the group (lpbcast-style membership) annotated with the
// members' subscriptions, and forwards an event only to interested view
// members. Only concerned processes carry the load, but interested
// processes can be isolated whenever no gossip path of interested processes
// connects them — exactly the reliability limitation the paper points out,
// most visible at small matching rates.
#pragma once

#include <memory>
#include <vector>

#include "analysis/rounds.hpp"
#include "pmcast/subscriber.hpp"

namespace pmc {

struct GenuineGossipMsg final : MessageBase {
  GenuineGossipMsg() noexcept : MessageBase(MsgKind::GenuineGossip) {}

  std::shared_ptr<const Event> event;
  std::uint32_t round = 0;
};

struct GenuineConfig {
  std::size_t fanout = 2;
  SimTime period = sim_ms(100);
  double pittel_c = 0.0;
  EnvParams env_estimate;
  /// Group size estimate used for the round bound (processes do not know
  /// the interested population; they scale n by the local matching rate).
  std::size_t group_size_hint = 0;
};

class GenuineNode final : public SubscriberNode {
 public:
  struct Peer {
    ProcessId pid = kNoProcess;
    Subscription subscription;  // known interests of the view member
  };

  /// `view`: this process's partial view (ids + known subscriptions).
  GenuineNode(Runtime& rt, ProcessId pid, GenuineConfig config,
              Subscription subscription, std::vector<Peer> view);

  void multicast(Event event);

 protected:
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_period() override;

 private:
  struct Entry {
    std::shared_ptr<const Event> event;
    std::uint32_t round = 0;
    /// The view members interested in the event, matched once when it is
    /// buffered: the view never changes.
    std::vector<ProcessId> interested;
  };

  void buffer(std::shared_ptr<const Event> event, std::uint32_t round);

  GenuineConfig config_;
  std::vector<Peer> view_;
  RoundEstimator estimator_;
  std::vector<Entry> buffer_;
  std::vector<std::size_t> picks_;  ///< each round's indices into interested
  std::vector<ProcessId> targets_;  ///< fan-out scratch for send_multi
};

}  // namespace pmc
