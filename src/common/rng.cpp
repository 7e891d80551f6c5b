#include "common/rng.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <numeric>

namespace pmc {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire 2019, "Fast Random Integer Generation in an Interval".
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_normal() noexcept {
  // Acklam's inverse normal CDF approximation (relative error < 1.15e-9
  // over the whole open interval), evaluated on one uniform draw mapped
  // into (0, 1). Good far beyond what latency sampling needs, and — unlike
  // Box-Muller or Ziggurat — consumes exactly one draw with no
  // trigonometry and no rejection loop.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  // Map the 53-bit uniform into the open interval: 0 would send the lower
  // tail branch to log(0).
  const double p = (static_cast<double>(next_u64() >> 11) + 0.5) * 0x1.0p-53;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  std::vector<std::size_t> out;
  sample_without_replacement(n, k, out);
  return out;
}

template <typename Index>
void Rng::sample_without_replacement(std::size_t n, std::size_t k,
                                     std::vector<Index>& out) {
  PMC_EXPECTS(k <= n);
  PMC_EXPECTS(n == 0 || n - 1 <= std::numeric_limits<Index>::max());
  out.clear();
  if (k > kSparseSample) {
    out.resize(n);
    std::iota(out.begin(), out.end(), Index{0});
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = i + static_cast<std::size_t>(next_below(n - i));
      using std::swap;
      swap(out[i], out[j]);
    }
    out.resize(k);
    return;
  }
  // The same swaps on an implicit identity array: position p holds
  // moved_value[m] if moved_pos[m] == p for some m, else p. Step i reads
  // positions i and j >= i and never reads position i again, so only j's
  // new value is recorded.
  std::array<std::size_t, kSparseSample> moved_pos;
  std::array<std::size_t, kSparseSample> moved_value;
  std::size_t moved = 0;
  const auto slot = [&](std::size_t p) {
    std::size_t m = 0;
    while (m < moved && moved_pos[m] != p) ++m;
    return m;
  };
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::size_t>(next_below(n - i));
    const std::size_t mi = slot(i);
    const std::size_t mj = slot(j);
    const std::size_t at_i = mi < moved ? moved_value[mi] : i;
    out.push_back(static_cast<Index>(mj < moved ? moved_value[mj] : j));
    if (mj == moved) moved_pos[moved++] = j;
    moved_value[mj] = at_i;
  }
}

template void Rng::sample_without_replacement(std::size_t, std::size_t,
                                              std::vector<std::size_t>&);
template void Rng::sample_without_replacement(std::size_t, std::size_t,
                                              std::vector<std::uint32_t>&);

}  // namespace pmc
