// Streaming statistics used by the experiment harness: Welford accumulators
// for mean/variance with normal-approximation confidence intervals. They
// keep no samples.
#pragma once

#include <cstddef>

namespace pmc {

/// Single-pass mean/variance accumulator (Welford's algorithm).
class Accumulator {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean; 0 for fewer than two samples.
  double stderr_mean() const noexcept;
  /// Half-width of the 95% confidence interval (normal approximation).
  double ci95_halfwidth() const noexcept { return 1.959964 * stderr_mean(); }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pmc
