// Hashed perceptron predictor (Jimenez & Lin, HPCA 2001 lineage).
//
// Used here as the prefetch filter / reuse predictor of the data-driven
// principle: each feature indexes a weight table; the prediction is the
// sign of the summed weights; training bumps weights when the prediction is
// wrong or the confidence is below threshold.
#pragma once

#include <cstdint>
#include <vector>

namespace ima::learn {

class Perceptron {
 public:
  struct Config {
    std::uint32_t num_features = 4;
    std::size_t table_entries = 1 << 12;  // per feature
    std::int32_t weight_max = 31;         // saturating 6-bit weights
    std::int32_t threshold = 32;          // training confidence threshold
  };

  explicit Perceptron(const Config& cfg);

  /// Weighted vote for hashed feature vector `f` (size == num_features).
  std::int32_t raw_output(const std::vector<std::uint64_t>& f) const;

  bool predict(const std::vector<std::uint64_t>& f) const { return raw_output(f) >= 0; }

  /// Perceptron training rule: update when wrong or under-confident.
  void train(const std::vector<std::uint64_t>& f, bool taken);

  const Config& config() const { return cfg_; }

  /// Checkpoint the weight table (config is fingerprinted, not restored).
  template <class Ar>
  void fields(Ar& ar) {
    ar.section("perceptron");
    ar.fixed(weights_, "perceptron table size");
  }

 private:
  std::size_t index(std::uint32_t feature, std::uint64_t hash) const;

  Config cfg_;
  std::vector<std::int32_t> weights_;
};

}  // namespace ima::learn
