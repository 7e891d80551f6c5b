// Infection-spreading Markov chain for a flat gossip group
// (paper Sec. 4.2, Eqs. 8-10 and 14).
//
// State = number of infected processes among n susceptibles. One infected
// process reaches a given other process in a round with probability
// p = (F/(n-1)) (1-ε)(1-τ); with j infected, a susceptible stays clean with
// probability q^j, so the one-round transition from j to k infects k-j of
// the n-j susceptibles binomially:
//   p_jk = C(n-j, k-j) (1-q^j)^(k-j) (q^j)^(n-k).
//
// All probabilities are computed in log space (lgamma binomials) so chains
// of a few hundred states stay numerically stable.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/rounds.hpp"

namespace pmc {

/// log C(n, k); requires 0 <= k <= n.
double log_binomial(double n, double k);

class InfectionChain {
 public:
  /// n: group size; p_receive: probability that one infected process infects
  /// one given other process in one round (already includes fanout, loss and
  /// crash discounts).
  InfectionChain(std::size_t n, double p_receive);

  /// The paper's parametrization (Eq. 8): group n, fanout F, environment.
  static InfectionChain flat(std::size_t n, double fanout,
                             const EnvParams& env = {});

  std::size_t group_size() const noexcept { return n_; }

  /// Distribution of s_t after `rounds` rounds from `initial` infected.
  /// Index k of the result is P[s_t = k], k in [0, n].
  std::vector<double> distribution_after(std::size_t rounds,
                                         std::size_t initial = 1) const;

  /// E[s_t] after `rounds` rounds (Eq. 14 uses t = T_i).
  double expected_infected(std::size_t rounds, std::size_t initial = 1) const;

  /// One-round transition probability P[s_{t+1} = k | s_t = j].
  double transition(std::size_t j, std::size_t k) const;

 private:
  std::size_t n_;
  double p_;
};

}  // namespace pmc
