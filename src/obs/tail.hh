// Log-bucketed tail-latency recorder (HDR-histogram style).
//
// RunningStat keeps exact count/sum/mean/min/max but no percentiles, and
// Histogram needs a pre-declared linear range — neither can answer
// "p999 read latency" over an open-ended distribution. TailRecorder can:
// integer samples land in logarithmic buckets whose relative width is
// bounded by the precision (2^-precision_bits), so percentile queries are
// accurate to ~6% at the default precision over the full 64-bit range,
// with a fixed sub-kilobyte footprint and O(1) insert. Values below
// 2^(precision_bits+1) are bucketed exactly.
//
// The recorder embeds a RunningStat, so count/sum/mean/min/max stay exact
// (not bucket-quantized) and registering one alongside existing RunningStat
// paths yields bit-identical values for the non-percentile fields.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hh"

namespace ima::obs {

class TailRecorder {
 public:
  /// Bucket layout: a value of bit width w > p+1 is shifted right by
  /// s = w - (p+1), keeping p+1 significant bits; bucket
  /// index = s * 2^p + (v >> s). Buckets are contiguous and cover all of
  /// uint64, (65 - p) * 2^p of them (976 at the default p = 4).
  explicit TailRecorder(unsigned precision_bits = 4);

  void add(std::uint64_t v) {
    stat_.add(static_cast<double>(v));
    ++counts_[bucket_of(v)];
  }

  /// Value below which fraction `q` of samples fall: the upper bound of
  /// the bucket holding the q-th sample, clamped into [min(), max()] so
  /// degenerate distributions (all samples equal) report the exact value
  /// rather than bucket edges with false precision.
  ///
  /// Domain contract: q is meaningful on (0, 1]. Out-of-range arguments
  /// are clamped rather than silently reinterpreted — q <= 0 (and NaN)
  /// reports the rank-1 sample (the minimum's bucket), q > 1 reports the
  /// rank-n sample (== percentile(1.0), never beyond max()). The clamp is
  /// part of the contract so a mistyped quantile (p99 passed as 99.0)
  /// saturates visibly at the distribution max instead of reading past the
  /// bucket array or fabricating a value.
  double percentile(double q) const;

  std::uint64_t count() const { return stat_.count(); }
  double sum() const { return stat_.sum(); }
  double mean() const { return stat_.mean(); }
  double min() const { return stat_.min(); }
  double max() const { return stat_.max(); }
  unsigned precision_bits() const { return p_; }

  /// The embedded exact-moment stat — registerable wherever a RunningStat
  /// was (obs::StatRegistry::running), value-identical to one.
  const RunningStat& stat() const { return stat_; }

  void reset();

  /// Bucket occupancy is sparse: only non-zero buckets travel.
  template <class Ar>
  void fields(Ar& ar) {
    ar.sparse(counts_, "tail recorder bucket count");
    ar(stat_);
  }

 private:
  std::size_t bucket_of(std::uint64_t v) const {
    unsigned w = 0;
    for (std::uint64_t x = v; x; x >>= 1) ++w;  // bit width; 0 for v == 0
    const unsigned s = w > p_ + 1 ? w - (p_ + 1) : 0;
    return (static_cast<std::size_t>(s) << p_) + static_cast<std::size_t>(v >> s);
  }

  unsigned p_;
  std::vector<std::uint64_t> counts_;
  RunningStat stat_;
};

}  // namespace ima::obs
