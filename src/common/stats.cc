#include "common/stats.hh"

#include <cassert>
#include <numeric>

namespace ima {

double Histogram::percentile(double q) const {
  const std::uint64_t total =
      std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= target) {
      const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
      // Clamp the bucket midpoint into the observed range: a degenerate
      // shape (single bucket, or all samples in one bucket) would otherwise
      // report a midpoint no sample ever took — false precision.
      return std::clamp(bucket_lo(i) + width * 0.5, stat_.min(), stat_.max());
    }
  }
  return std::clamp(hi_, stat_.min(), stat_.max());
}

double harmonic_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double inv = 0.0;
  for (double x : xs) {
    if (x <= 0.0) return 0.0;
    inv += 1.0 / x;
  }
  return static_cast<double>(xs.size()) / inv;
}

double geometric_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    if (x <= 0.0) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double weighted_speedup(const std::vector<double>& shared_ipc,
                        const std::vector<double>& alone_ipc) {
  assert(shared_ipc.size() == alone_ipc.size());
  double ws = 0.0;
  for (std::size_t i = 0; i < shared_ipc.size(); ++i) {
    if (alone_ipc[i] > 0.0) ws += shared_ipc[i] / alone_ipc[i];
  }
  return ws;
}

double max_slowdown(const std::vector<double>& shared_ipc,
                    const std::vector<double>& alone_ipc) {
  assert(shared_ipc.size() == alone_ipc.size());
  double worst = 1.0;
  for (std::size_t i = 0; i < shared_ipc.size(); ++i) {
    if (shared_ipc[i] > 0.0) worst = std::max(worst, alone_ipc[i] / shared_ipc[i]);
  }
  return worst;
}

}  // namespace ima
