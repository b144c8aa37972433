// Tabular Q-learning over hashed feature states.
//
// This is the learning core of the data-driven principle: the
// self-optimizing memory controller (Ipek et al., ISCA 2008) casts command
// scheduling as a reinforcement-learning problem — state = controller
// attributes, action = command choice, reward = data-bus utilization.
// Hardware implementations hash the feature vector into small SRAM tables
// (CMAC); we model that directly with a hashed Q-table, so capacity
// pressure and aliasing behave like the real proposal rather than like an
// idealized infinite table.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace ima::learn {

/// Mixes a feature vector into a state hash. Order-sensitive.
class StateHash {
 public:
  StateHash& add(std::uint64_t feature) {
    h_ ^= feature + 0x9E3779B97F4A7C15ull + (h_ << 6) + (h_ >> 2);
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x517CC1B727220A95ull;
};

class QAgent {
 public:
  struct Config {
    std::uint32_t num_actions = 4;
    std::size_t table_entries = 1 << 14;  // per action
    double alpha = 0.1;                   // learning rate
    double gamma = 0.95;                  // discount
    double epsilon = 0.05;                // exploration probability
    double init_q = 0.0;                  // optimistic init if > 0
    std::uint64_t seed = 1;
  };

  explicit QAgent(const Config& cfg);

  /// Epsilon-greedy action selection for hashed state `s`.
  std::uint32_t act(std::uint64_t s);

  /// Greedy (no exploration) action — used after training or for inspection.
  std::uint32_t act_greedy(std::uint64_t s) const;

  /// One-step Q-learning update for transition (s, a) -> (reward, s_next).
  void learn(std::uint64_t s, std::uint32_t a, double reward, std::uint64_t s_next);

  /// Terminal update (no successor state).
  void learn_terminal(std::uint64_t s, std::uint32_t a, double reward);

  double q(std::uint64_t s, std::uint32_t a) const { return table_[index(s, a)]; }
  double max_q(std::uint64_t s) const;

  void set_epsilon(double eps) { cfg_.epsilon = eps; }
  double epsilon() const { return cfg_.epsilon; }
  const Config& config() const { return cfg_; }

  std::uint64_t updates() const { return updates_; }

  /// Checkpoint the learned table, exploration RNG, update count, and the
  /// (mutable) epsilon — enough to resume training bit-identically.
  template <class Ar>
  void fields(Ar& ar) {
    ar.section("qagent");
    ar.match(cfg_.num_actions, "qagent action count");
    ar.match(std::uint64_t{cfg_.table_entries}, "qagent table entries");
    ar(cfg_.epsilon, table_, rng_, updates_);
  }

 private:
  std::size_t index(std::uint64_t s, std::uint32_t a) const {
    // Fibonacci-hash the state into the per-action slice.
    const std::uint64_t mixed = (s * 0x9E3779B97F4A7C15ull) >> 16;
    return static_cast<std::size_t>(a) * cfg_.table_entries +
           static_cast<std::size_t>(mixed & (cfg_.table_entries - 1));
  }

  Config cfg_;
  std::vector<double> table_;
  Rng rng_;
  std::uint64_t updates_ = 0;
};

}  // namespace ima::learn
