#include "learn/perceptron.hh"

#include <algorithm>
#include <cassert>

#include "common/bits.hh"

namespace ima::learn {

Perceptron::Perceptron(const Config& cfg) : cfg_(cfg) {
  assert(is_pow2(cfg_.table_entries));
  weights_.assign(static_cast<std::size_t>(cfg_.num_features) * cfg_.table_entries, 0);
}

std::size_t Perceptron::index(std::uint32_t feature, std::uint64_t hash) const {
  const std::uint64_t mixed = (hash ^ (hash >> 29)) * 0xBF58476D1CE4E5B9ull;
  return static_cast<std::size_t>(feature) * cfg_.table_entries +
         static_cast<std::size_t>((mixed >> 17) & (cfg_.table_entries - 1));
}

std::int32_t Perceptron::raw_output(const std::vector<std::uint64_t>& f) const {
  assert(f.size() == cfg_.num_features);
  std::int32_t sum = 0;
  for (std::uint32_t i = 0; i < cfg_.num_features; ++i) sum += weights_[index(i, f[i])];
  return sum;
}

void Perceptron::train(const std::vector<std::uint64_t>& f, bool taken) {
  const std::int32_t out = raw_output(f);
  const bool predicted = out >= 0;
  if (predicted == taken && std::abs(out) > cfg_.threshold) return;
  const std::int32_t delta = taken ? 1 : -1;
  for (std::uint32_t i = 0; i < cfg_.num_features; ++i) {
    std::int32_t& w = weights_[index(i, f[i])];
    w = std::clamp(w + delta, -cfg_.weight_max - 1, cfg_.weight_max);
  }
}

}  // namespace ima::learn
