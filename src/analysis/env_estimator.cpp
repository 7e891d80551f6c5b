#include "analysis/env_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "common/contract.hpp"

namespace pmc {

namespace {

/// Both estimates stay at or below this, so (1-ε)(1-τ) > 0.
constexpr double kCeiling = 0.9;
/// Feedback windows with fewer probes than this are noise.
constexpr std::uint64_t kMinProbes = 4;

}  // namespace

EnvEstimator::EnvEstimator(EnvParams prior, double ewma_alpha)
    : alpha_(ewma_alpha),
      loss_(std::min(prior.loss, kCeiling)),
      crash_(std::min(prior.crash, kCeiling)) {
  PMC_EXPECTS(prior.loss >= 0.0 && prior.loss < 1.0);
  PMC_EXPECTS(prior.crash >= 0.0 && prior.crash < 1.0);
  PMC_EXPECTS(ewma_alpha > 0.0 && ewma_alpha <= 1.0);
}

void EnvEstimator::observe_feedback(std::uint64_t probes,
                                    std::uint64_t acks) {
  if (probes < kMinProbes) return;  // too small to be signal
  // acked/sent estimates the round-trip success (1-ε)²; acks answering
  // probes of the previous window can push the ratio past 1, so clamp.
  const double ratio = std::min(
      1.0, static_cast<double>(acks) / static_cast<double>(probes));
  const double observed = 1.0 - std::sqrt(ratio);
  loss_ = (1.0 - alpha_) * loss_ + alpha_ * observed;
  loss_ = std::clamp(loss_, 0.0, kCeiling);
  ++feedback_windows_;
}

void EnvEstimator::observe_churn(std::uint64_t deaths,
                                 std::uint64_t population) {
  if (population == 0) return;
  const double observed = std::min(
      1.0, static_cast<double>(deaths) / static_cast<double>(population));
  crash_ = (1.0 - alpha_) * crash_ + alpha_ * observed;
  crash_ = std::clamp(crash_, 0.0, kCeiling);
  ++churn_windows_;
}

EnvParams EnvEstimator::estimate() const noexcept {
  return EnvParams{loss_, crash_};
}

}  // namespace pmc
