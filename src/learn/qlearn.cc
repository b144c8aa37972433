#include "learn/qlearn.hh"

#include <algorithm>
#include <cassert>

#include "common/bits.hh"

namespace ima::learn {

QAgent::QAgent(const Config& cfg) : cfg_(cfg), rng_(cfg.seed) {
  assert(is_pow2(cfg_.table_entries));
  assert(cfg_.num_actions > 0);
  table_.assign(static_cast<std::size_t>(cfg_.num_actions) * cfg_.table_entries,
                cfg_.init_q);
}

std::uint32_t QAgent::act(std::uint64_t s) {
  if (rng_.chance(cfg_.epsilon)) return static_cast<std::uint32_t>(rng_.next_below(cfg_.num_actions));
  return act_greedy(s);
}

std::uint32_t QAgent::act_greedy(std::uint64_t s) const {
  std::uint32_t best = 0;
  double best_q = q(s, 0);
  for (std::uint32_t a = 1; a < cfg_.num_actions; ++a) {
    const double v = q(s, a);
    if (v > best_q) {
      best_q = v;
      best = a;
    }
  }
  return best;
}

double QAgent::max_q(std::uint64_t s) const {
  double m = q(s, 0);
  for (std::uint32_t a = 1; a < cfg_.num_actions; ++a) m = std::max(m, q(s, a));
  return m;
}

void QAgent::learn(std::uint64_t s, std::uint32_t a, double reward, std::uint64_t s_next) {
  double& cell = table_[index(s, a)];
  cell += cfg_.alpha * (reward + cfg_.gamma * max_q(s_next) - cell);
  ++updates_;
}

void QAgent::learn_terminal(std::uint64_t s, std::uint32_t a, double reward) {
  double& cell = table_[index(s, a)];
  cell += cfg_.alpha * (reward - cell);
  ++updates_;
}

}  // namespace ima::learn
