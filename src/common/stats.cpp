#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace pmc {

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double Accumulator::stderr_mean() const noexcept {
  return n_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
}

}  // namespace pmc
