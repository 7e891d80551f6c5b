// Gossip-based *broadcast* with filtering at delivery — the "flooding"
// alternative the paper's introduction argues against (pbcast/lpbcast
// style). Every process relays every event to F random members of the whole
// group for T(n, F) rounds; interest is only checked before handing the
// event to the application. Reliable for interested processes, but
// uninterested processes receive (almost) everything.
#pragma once

#include <memory>
#include <vector>

#include "analysis/rounds.hpp"
#include "pmcast/subscriber.hpp"

namespace pmc {

struct FloodGossipMsg final : MessageBase {
  FloodGossipMsg() noexcept : MessageBase(MsgKind::FloodGossip) {}

  std::shared_ptr<const Event> event;
  std::uint32_t round = 0;
};

struct FloodingConfig {
  std::size_t fanout = 2;
  SimTime period = sim_ms(100);
  double pittel_c = 0.0;
  EnvParams env_estimate;
};

class FloodingNode final : public SubscriberNode {
 public:
  /// `peers`: the full group membership (every process knows everyone —
  /// the global-knowledge assumption gossip broadcast algorithms make).
  FloodingNode(Runtime& rt, ProcessId pid, FloodingConfig config,
               Subscription subscription,
               std::shared_ptr<const std::vector<ProcessId>> peers);

  void broadcast(Event event);

 protected:
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_period() override;

 private:
  struct Entry {
    std::shared_ptr<const Event> event;
    std::uint32_t round = 0;
  };

  void buffer(Entry entry);

  FloodingConfig config_;
  std::shared_ptr<const std::vector<ProcessId>> peers_;
  RoundEstimator estimator_;
  std::vector<Entry> buffer_;
  std::vector<ProcessId> targets_;  ///< fan-out scratch for send_multi
  std::vector<std::size_t> picks_;  ///< each round's sampled peer indices
};

}  // namespace pmc
