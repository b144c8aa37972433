// Lightweight statistics primitives used by every simulator component.
//
// Components own their stats as plain value members; a StatRegistry can
// enumerate them for reporting. All stats are trivially copyable so that
// "snapshot and diff" (per-phase statistics) is cheap.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ima {

/// Running scalar statistic: count / sum / min / max / mean / stddev
/// (Welford's online algorithm, numerically stable).
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }

  void reset() { *this = RunningStat{}; }

  /// Checkpoint the exact accumulator state (Welford terms included), so a
  /// restored stat is bit-identical to the uninterrupted one.
  template <class Ar>
  void fields(Ar& ar) {
    ar(n_, sum_, mean_, m2_, min_, max_);
  }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket linear histogram over [lo, hi); out-of-range values clamp to
/// the edge buckets. Used for latency distributions.
class Histogram {
 public:
  /// Degenerate shapes are repaired rather than UB: zero buckets becomes
  /// one, and an empty/inverted range [lo, hi<=lo) widens to one unit so
  /// add() never divides by zero.
  Histogram(double lo, double hi, std::size_t buckets)
      : lo_(lo), hi_(hi > lo ? hi : lo + 1.0), counts_(std::max<std::size_t>(1, buckets), 0) {}

  void add(double x) {
    stat_.add(x);
    const double f = (x - lo_) / (hi_ - lo_);
    auto idx = static_cast<std::int64_t>(f * static_cast<double>(counts_.size()));
    idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
  }

  /// Value below which fraction `q` (0..1) of samples fall, by bucket
  /// interpolation.
  double percentile(double q) const;

  const std::vector<std::uint64_t>& counts() const { return counts_; }
  const RunningStat& stat() const { return stat_; }
  double bucket_lo(std::size_t i) const {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.fixed(counts_, "histogram bucket count");
    ar(stat_);
  }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  RunningStat stat_;
};

/// Named scalar for report output.
struct StatValue {
  std::string name;
  double value;
};

/// Harmonic / geometric means over speedup vectors, used by fairness and
/// multi-programmed throughput metrics.
double harmonic_mean(const std::vector<double>& xs);
double geometric_mean(const std::vector<double>& xs);

/// Weighted speedup (system throughput) and maximum slowdown (unfairness)
/// given per-application IPCs when shared vs when alone.
double weighted_speedup(const std::vector<double>& shared_ipc,
                        const std::vector<double>& alone_ipc);
double max_slowdown(const std::vector<double>& shared_ipc,
                    const std::vector<double>& alone_ipc);

}  // namespace ima
