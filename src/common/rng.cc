#include "common/rng.hh"

#include <cmath>

namespace ima {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Lemire's nearly-divisionless bounded draw; slight modulo bias is
  // irrelevant at 64-bit width for simulator purposes, but we use the
  // multiply-shift reduction to avoid the modulo cost.
  const unsigned __int128 m =
      static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(bound);
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double ZipfGenerator::zeta(std::uint64_t n, double theta) {
  // Exact prefix sum up to the cutoff; for larger n, close the tail with
  // the Euler–Maclaurin expansion of sum_{i=K+1..n} i^-theta:
  //   integral_K^n x^-theta dx + (f(n) - f(K)) / 2 + (f'(n) - f'(K)) / 12
  // which at K = 65536 is accurate to ~1e-12 relative — far below the
  // resolution of any draw — while keeping setup bounded instead of O(n).
  const std::uint64_t exact_n = n < kZetaExactCutoff ? n : kZetaExactCutoff;
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= exact_n; ++i)
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  if (n <= kZetaExactCutoff) return sum;

  const double K = static_cast<double>(kZetaExactCutoff);
  const double N = static_cast<double>(n);
  const double fK = std::pow(K, -theta);
  const double fN = std::pow(N, -theta);
  const double integral = theta == 1.0
                              ? std::log(N / K)
                              : (std::pow(N, 1.0 - theta) - std::pow(K, 1.0 - theta)) /
                                    (1.0 - theta);
  const double trapezoid = 0.5 * (fN - fK);
  const double derivative = -theta * (fN / N - fK / K) / 12.0;
  return sum + integral + trapezoid + derivative;
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed)
    : n_(n), theta_(theta), rng_(seed) {
  if (n_ == 0) n_ = 1;
  // Guard the Gray et al. domain: alpha = 1/(1-theta) is infinite at
  // theta == 1 and the draws silently become NaN. Clamp instead.
  if (!(theta_ >= 0.0)) theta_ = 0.0;  // also catches NaN
  if (theta_ >= 1.0) theta_ = kMaxTheta;
  zeta2_ = zeta(2, theta_);
  zetan_ = zeta(n_, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2_ / zetan_);
}

std::uint64_t ZipfGenerator::next() {
  if (theta_ <= 0.0) return rng_.next_below(n_);
  const double u = rng_.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto idx = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return idx >= n_ ? n_ - 1 : idx;
}

}  // namespace ima
