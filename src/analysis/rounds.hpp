// Expected-round estimation (paper Sec. 3.3, Eqs. 3 and 11).
//
// Pittel's asymptote for rumor spreading in a group of n processes with
// fanout F:  T(n, F) = log n * (1/F + 1/log(F+1)) + c  [Pittel 1987].
// pmcast uses it to bound how long an event is gossiped at each tree depth
// ("passive garbage collection"). Message loss ε and crash probability τ are
// folded in by discounting both the population and the fanout (Eq. 11):
// Tf(n, F) = T(n(1-ε)(1-τ), F(1-ε)(1-τ)).
//
// The asymptote degrades for small n — the paper's Sec. 5.1/5.3 discusses
// the resulting reliability loss at small matching rates; we reproduce that
// behaviour faithfully (no artificial clamping).
#pragma once

#include <cstddef>

namespace pmc {

/// Environmental parameters of the analysis model (Sec. 4.1).
struct EnvParams {
  double loss = 0.0;   ///< ε — per-message loss probability
  double crash = 0.0;  ///< τ = f/n — per-process crash probability
};

class RoundEstimator {
 public:
  /// `c` is the additive constant of Eq. 3 (the paper leaves it free;
  /// conservative values increase reliability at the cost of extra rounds).
  explicit RoundEstimator(double c = 0.0) : c_(c) {}

  /// Raw Pittel estimate T(n, F); 0 when n <= 1, F <= 0, or either input
  /// is NaN (degenerate and collapsed inputs yield an explicit 0, never a
  /// NaN bound). Real-valued: the algorithm gossips while round < T, i.e.
  /// for ceil(T) rounds.
  double pittel(double n, double fanout) const;

  /// Loss/crash-adjusted estimate Tf(n, F) (Eq. 11). Accepts ε, τ in
  /// [0, 1]: the boundary (everything lost/crashed) collapses the bound
  /// to 0 explicitly; values outside [0, 1] (or NaN) throw. When the
  /// discounted population n(1-ε)(1-τ) drops to <= 1 the bound is 0 as
  /// well — observable at the caller via
  /// PmcastNode::GossipStats::bound_collapsed.
  double faulty(double n, double fanout, const EnvParams& env) const;

  /// Number of gossip rounds the algorithm will actually execute for a raw
  /// estimate t: ceil(t), 0 when t <= 0.
  static std::size_t executed_rounds(double t);

 private:
  double c_;
};

}  // namespace pmc
