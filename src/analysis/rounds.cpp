#include "analysis/rounds.hpp"

#include <cmath>

#include "common/contract.hpp"

namespace pmc {

double RoundEstimator::pittel(double n, double fanout) const {
  // Negated comparisons so NaN inputs (a collapsed upstream discount)
  // fall into the explicit 0 as well, instead of flowing through log()
  // and poisoning the round bound. A 0 here means "gossip zero rounds";
  // callers that still have an audience count the collapse
  // (PmcastNode::GossipStats::bound_collapsed) rather than losing the
  // event silently.
  if (!(n > 1.0) || !(fanout > 0.0)) return 0.0;
  const double t =
      std::log(n) * (1.0 / fanout + 1.0 / std::log(fanout + 1.0)) + c_;
  return t > 0.0 ? t : 0.0;
}

double RoundEstimator::faulty(double n, double fanout,
                              const EnvParams& env) const {
  // The boundary values ε = 1 / τ = 1 are accepted (an online estimator
  // saturating under total loss is a legitimate state, not a programming
  // error) and collapse the bound to an explicit 0; only out-of-range and
  // NaN parameters are rejected.
  PMC_EXPECTS(env.loss >= 0.0 && env.loss <= 1.0);
  PMC_EXPECTS(env.crash >= 0.0 && env.crash <= 1.0);
  const double keep = (1.0 - env.loss) * (1.0 - env.crash);
  if (keep <= 0.0) return 0.0;
  return pittel(n * keep, fanout * keep);
}

std::size_t RoundEstimator::executed_rounds(double t) {
  if (t <= 0.0) return 0;
  return static_cast<std::size_t>(std::ceil(t));
}

}  // namespace pmc
