// Online estimation of the environment parameters ε (message loss) and
// τ (crash rate) of the reliability analysis (paper Sec. 3.3/4.1, Eq. 11).
//
// The paper assumes every deployed process *knows* ε and τ ("estimates
// available to deployed processes"); our simulations previously froze that
// estimate at configuration time, so every loss burst or crash wave ran
// with a round bound computed for the wrong environment. EnvEstimator
// closes that gap by pure observation:
//
//  * ε from gossip feedback. With SyncConfig::ack_digests on, every
//    periodic membership digest elicits exactly one MembershipUpdate back
//    (rows when the peer is newer, an empty ack otherwise), turning the
//    anti-entropy traffic into loss probes. Over a sampling window the
//    round-trip success ratio acked/sent estimates (1-ε)², so the
//    per-window loss observation is 1 - sqrt(acked/sent). Known confound:
//    a probe to a crashed-but-not-yet-tombstoned (or partitioned-away)
//    peer goes unacked exactly like a lost message, so crash waves bleed
//    into ε̂ until failure detection prunes the view — the estimate is a
//    deliberately conservative "effective loss towards my current view",
//    which can double-discount a failure that τ̂ also sees. Over-gossiping
//    after crash waves is the safe direction for reliability; the 0.9
//    ceiling (below) bounds the damage.
//  * τ from view incarnation churn: rows observed transitioning alive→dead
//    (SyncNode::Stats::deaths_observed) over the known population,
//    per window. This approximates the paper's τ = f/n for windows on the
//    order of an event's gossip lifetime.
//
// Both observations are folded into an EWMA seeded from the static prior.
// Feedback windows of fewer than 4 probes are discarded: a 1-of-2 ack
// window would swing the EWMA on pure noise. The estimator is
// deterministic by construction — no RNG, only counter arithmetic — so
// adaptive runs replay byte-identically and never perturb co-hosted
// shards. Its output is always a valid RoundEstimator input: both
// estimates are clamped to [0, 0.9], so (1-ε)(1-τ) stays strictly
// positive and an estimator that believes *everything* is lost still
// leaves the algorithm a usable (if collapsed) bound. Never NaN.
#pragma once

#include <cstdint>

#include "analysis/rounds.hpp"

namespace pmc {

class EnvEstimator {
 public:
  /// Starts from the static ε/τ `prior` (each in [0, 1)), and weighs each
  /// new observation window by `ewma_alpha`, in (0, 1]. Larger weights
  /// track bursts faster but pass more sampling noise into the bound.
  EnvEstimator(EnvParams prior, double ewma_alpha);

  /// One feedback window: membership digests sent vs. update/ack replies
  /// received. Windows with fewer than 4 probes are ignored;
  /// the ratio is clamped to [0, 1] (late acks can straddle windows).
  void observe_feedback(std::uint64_t probes, std::uint64_t acks);

  /// One churn window: alive→dead row transitions observed vs. the known
  /// population. A window with an empty population is ignored.
  void observe_churn(std::uint64_t deaths, std::uint64_t population);

  /// Current smoothed estimate; always a valid RoundEstimator::faulty
  /// input (within [0, 0.9], never NaN).
  EnvParams estimate() const noexcept;

  std::uint64_t feedback_windows() const noexcept {
    return feedback_windows_;
  }
  std::uint64_t churn_windows() const noexcept { return churn_windows_; }

 private:
  double alpha_;  ///< EWMA weight of a new window
  double loss_;   ///< EWMA state, seeded from the prior's loss
  double crash_;  ///< EWMA state, seeded from the prior's crash
  std::uint64_t feedback_windows_ = 0;  ///< accepted feedback windows
  std::uint64_t churn_windows_ = 0;     ///< accepted churn windows
};

}  // namespace pmc
