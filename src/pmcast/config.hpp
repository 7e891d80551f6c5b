// Tunables of the pmcast algorithm (paper Sec. 3.3 and 5.3).
#pragma once

#include "analysis/rounds.hpp"
#include "membership/config.hpp"
#include "sim/time.hpp"

namespace pmc {

struct PmcastConfig {
  TreeConfig tree;

  /// Gossip fanout F: targets drawn per buffered event per period. Drawn
  /// from the whole view; only interested targets are actually sent to
  /// (Fig. 3 lines 10-14), so the *effective* fanout is F * matching-rate.
  std::size_t fanout = 2;

  /// Gossip period P.
  SimTime period = sim_ms(100);

  /// Additive constant of Pittel's estimate (Eq. 3). Conservative (larger)
  /// values buy reliability with extra rounds.
  double pittel_c = 0.0;

  /// The ε/τ the *algorithm* assumes when bounding rounds (Eq. 11): the
  /// paper's static estimate (available to deployed processes, not ground
  /// truth; conservative values recommended), each in [0, 1). A live
  /// source set with PmcastNode::set_env_source replaces it.
  EnvParams env;

  /// Small-matching-rate tuning threshold h (Sec. 5.3). When fewer than h
  /// view members are interested at a depth, additional members are treated
  /// as interested until h are, walking the view circularly from an
  /// event-derived start index (see tuning_start_index: deterministic across
  /// processes, unbiased across events). 0 disables the tuning.
  std::size_t tuning_threshold = 0;

  /// Sec. 3.2's shortcut: a freshly multicast event whose interest at a
  /// depth is confined to the originator's own subtree skips directly to
  /// the next depth.
  bool local_interest_shortcut = true;

  /// Sec. 6's per-depth mechanism (1): "flooding the leaf subgroups if
  /// there is a high density of interests". When the matching rate carried
  /// into the leaf depth is at least this density, the first gossip round
  /// there sends the event once to *every* interested neighbor instead of
  /// probabilistic rounds — deterministic within the subgroup, and cheaper
  /// than T(a, F) gossip rounds when nearly everyone wants the event.
  /// Values > 1 disable the mechanism (default).
  double leaf_flood_density = 2.0;

  /// pbcast/rpbcast-style digest recovery (the mechanism pmcast's Sec. 3.1
  /// contrasts itself with), layered on the leaf subgroups as an optional
  /// reliability booster: after an event's gossip life-time ends at depth
  /// d, the process keeps the payload and gossips *digests* (event ids,
  /// pre-filtered against each target's interests) to leaf neighbors for
  /// this many extra periods; a neighbor missing an event requests a
  /// retransmission. Recovers processes the bounded rounds missed — the
  /// dominant loss at small matching rates — at the cost of digest
  /// traffic. 0 disables (the paper's plain algorithm).
  std::size_t recovery_rounds = 0;

  /// Graceful degradation under adversarial load: caps on the two stores a
  /// hostile schedule can grow without bound. `max_retained` bounds the
  /// digest-recovery store (overflow sheds the smallest EventId — a
  /// deterministic total order, so replays agree on every victim);
  /// `max_buffered` bounds the total entries across the per-depth gossip
  /// buffers (overflow drops the incoming event instead of buffering it —
  /// it was delivered locally if interested, only its re-gossip is shed).
  /// Every shed increments PmcastNode::GossipStats::shed_events. 0 =
  /// unbounded (the default; fingerprints of capless runs are unchanged).
  std::size_t max_retained = 0;
  std::size_t max_buffered = 0;

  void validate() const {
    tree.validate();
    PMC_EXPECTS(env.loss >= 0.0 && env.loss < 1.0);
    PMC_EXPECTS(env.crash >= 0.0 && env.crash < 1.0);
    PMC_EXPECTS(fanout >= 1);
    PMC_EXPECTS(period > 0);
  }
};

}  // namespace pmc
