#include "obs/tail.hh"

#include <algorithm>
#include <cmath>

namespace ima::obs {

TailRecorder::TailRecorder(unsigned precision_bits) : p_(precision_bits) {
  counts_.assign(static_cast<std::size_t>(65 - p_) << p_, 0);
}

double TailRecorder::percentile(double q) const {
  const std::uint64_t n = stat_.count();
  if (n == 0) return 0.0;
  // Domain clamp (see header): q lives on (0, 1]. The comparison is
  // written so NaN falls into the q <= 0 branch — ceil(NaN * n) cast to
  // uint64 would be undefined behaviour, not a clamp.
  if (!(q > 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample, 1-based: the smallest value v such that at
  // least ceil(q * n) samples are <= v.
  auto target = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  target = std::clamp<std::uint64_t>(target, 1, n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    seen += counts_[i];
    if (seen >= target) {
      // Invert bucket_of: bucket band b = i >> p_; bands 0 and 1 are
      // unshifted (values 0 .. 2^(p+1)-1), band b >= 2 uses shift b-1.
      const std::size_t b = i >> p_;
      const unsigned s = b < 2 ? 0 : static_cast<unsigned>(b) - 1;
      const std::uint64_t m = i - (static_cast<std::size_t>(s) << p_);
      const std::uint64_t upper = ((m + 1) << s) - 1;  // largest value in bucket
      return std::clamp(static_cast<double>(upper), stat_.min(), stat_.max());
    }
  }
  return stat_.max();  // unreachable for n > 0; keep the compiler honest
}

void TailRecorder::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  stat_ = RunningStat{};
}

}  // namespace ima::obs
