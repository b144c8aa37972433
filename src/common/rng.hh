// Deterministic random-number generation for the simulator.
//
// We use xoshiro256** rather than std::mt19937_64 because simulation results
// must be reproducible across standard-library implementations, and because
// the simulator draws billions of values in long runs.
#pragma once

#include <cstdint>
#include <vector>

namespace ima {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initializes the state from a single seed via splitmix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform in [0, bound). Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli draw with probability p.
  bool chance(double p) { return next_double() < p; }

  /// Uniform in [lo, hi] inclusive.
  std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next_below(hi - lo + 1);
  }

  /// Checkpoint the exact generator state (the four xoshiro words), so a
  /// restored run replays the identical draw sequence.
  template <class Ar>
  void fields(Ar& ar) {
    ar(s_);
  }

 private:
  std::uint64_t s_[4]{};
};

/// Zipfian distribution over [0, n) with skew parameter `theta` in [0, 1).
/// theta = 0 degenerates to uniform; theta ~ 0.99 is the classic YCSB-style
/// highly skewed distribution. Uses the Gray et al. rejection-free method
/// with precomputed constants: O(1) per draw after bounded setup — zeta(n)
/// is summed exactly up to kZetaExactCutoff terms and closed with an
/// Euler–Maclaurin tail beyond it, so construction stays O(cutoff) even
/// for graph-scale n (millions of vertices).
///
/// Domain: theta must lie in [0, 1). The Gray et al. constants
/// (alpha = 1/(1-theta)) blow up at theta == 1, so out-of-range values are
/// clamped — negatives to 0 (uniform), >= 1 to kMaxTheta — instead of
/// silently producing inf/NaN draws; theta() reports the clamped value.
class ZipfGenerator {
 public:
  /// Largest exactly-summed zeta prefix; above this the Euler–Maclaurin
  /// closed form takes over (relative error < 1e-12 at this cutoff).
  static constexpr std::uint64_t kZetaExactCutoff = 65536;
  /// Highest representable skew; theta >= 1 clamps here.
  static constexpr double kMaxTheta = 0.999999;

  ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed = 1);

  std::uint64_t next();

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

  /// Only the embedded Rng is mutable state; the Gray et al. constants are
  /// construction-derived, so load verifies (n, theta) as config.
  template <class Ar>
  void fields(Ar& ar) {
    ar.match(n_, "zipf n");
    ar.match(theta_, "zipf theta");
    ar(rng_);
  }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2_;
  Rng rng_;

  static double zeta(std::uint64_t n, double theta);
};

}  // namespace ima
