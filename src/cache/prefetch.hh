// Hardware prefetchers and a learned prefetch filter.
//
// Baselines: next-line, per-PC stride, and a GHB-style delta-correlation
// prefetcher (Nesbit & Smith, HPCA 2004 [156]). On top of these, a
// perceptron-based filter (Bhatia et al., ISCA 2019 [46]) gates prefetch
// issue — a concrete data-driven controller making per-decision use of
// runtime feedback, versus a fixed always-issue heuristic.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "learn/perceptron.hh"

namespace ima::obs {
class StatRegistry;
}  // namespace ima::obs

namespace ima::ckpt {
class Sink;
class Source;
}  // namespace ima::ckpt

namespace ima::cache {

struct PrefetchRequest {
  Addr addr = 0;
  std::uint64_t pc = 0;
};

class Prefetcher {
 public:
  virtual ~Prefetcher() = default;

  /// Observes a demand access (post-L1) and appends prefetch candidates.
  virtual void observe(Addr addr, std::uint64_t pc, bool was_miss,
                       std::vector<PrefetchRequest>& out) = 0;

  /// Prefetcher-internal counters under `prefix`. Default: none.
  virtual void register_stats(obs::StatRegistry&, const std::string& /*prefix*/) const {}

  /// Checkpoint detector tables / history buffers / learned weights.
  /// Stateless prefetchers (none, next-line) keep the empty defaults; the
  /// others forward both to their one fields() (common/ckpt.hh). The
  /// restore target must be built by the same factory with the same
  /// parameters.
  virtual void save_state(ckpt::Sink&) const {}
  virtual void load_state(ckpt::Source&) {}

  virtual std::string name() const = 0;
};

std::unique_ptr<Prefetcher> make_no_prefetcher();
std::unique_ptr<Prefetcher> make_next_line(std::uint32_t degree = 1);
std::unique_ptr<Prefetcher> make_stride(std::uint32_t table_size = 256, std::uint32_t degree = 2);
std::unique_ptr<Prefetcher> make_ghb_delta(std::uint32_t history = 256, std::uint32_t degree = 2);

/// A prefetcher that learns from per-prefetch outcome feedback.
class TrainablePrefetcher : public Prefetcher {
 public:
  /// A previously issued prefetch was demanded before eviction.
  virtual void notify_useful(Addr addr, std::uint64_t pc) = 0;
  /// A previously issued prefetch was evicted untouched.
  virtual void notify_useless(Addr addr, std::uint64_t pc) = 0;
};

/// Feedback-directed prefetching (Srinath et al., HPCA 2007 [150]): track
/// the accuracy of issued prefetches over sampling intervals and throttle
/// the degree — aggressive when accurate, quiet when polluting. One of the
/// paper's examples of a controller driven by its own observed data.
class FeedbackPrefetcher final : public TrainablePrefetcher {
 public:
  struct Config {
    std::uint32_t min_degree = 0;   // 0 = prefetching off
    std::uint32_t max_degree = 8;
    std::uint32_t sample_interval = 256;  // outcomes per decision
    double high_accuracy = 0.70;    // raise degree above this
    double low_accuracy = 0.30;     // lower degree below this
  };

  FeedbackPrefetcher();
  explicit FeedbackPrefetcher(Config cfg);

  void observe(Addr addr, std::uint64_t pc, bool was_miss,
               std::vector<PrefetchRequest>& out) override;
  void notify_useful(Addr addr, std::uint64_t pc) override;
  void notify_useless(Addr addr, std::uint64_t pc) override;

  std::string name() const override { return "feedback-stride"; }
  std::uint32_t current_degree() const { return degree_; }

  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const override;

  void save_state(ckpt::Sink& s) const override;
  void load_state(ckpt::Source& s) override;
  template <class Ar>
  void fields(Ar& ar);

 private:
  void maybe_adjust();

  Config cfg_;
  std::uint32_t degree_;
  std::uint64_t useful_ = 0;   // within the current sampling interval
  std::uint64_t useless_ = 0;
  std::uint64_t total_useful_ = 0;  // lifetime (for stat registration)
  std::uint64_t total_useless_ = 0;
  // Inner stride detector state (per-PC), duplicated at max degree; the
  // throttle truncates candidates to the current degree.
  std::unique_ptr<Prefetcher> inner_;
};

/// Wraps any prefetcher with a perceptron usefulness filter: candidates the
/// perceptron predicts useless are dropped. Feedback comes from
/// notify_useful()/notify_useless() calls by the owner (hierarchy).
class FilteredPrefetcher final : public TrainablePrefetcher {
 public:
  FilteredPrefetcher(std::unique_ptr<Prefetcher> inner, std::size_t table_entries = 1 << 12);

  void observe(Addr addr, std::uint64_t pc, bool was_miss,
               std::vector<PrefetchRequest>& out) override;

  /// Training feedback: a previously issued prefetch turned out useful
  /// (demand hit before eviction) or useless (evicted untouched).
  void notify_useful(Addr addr, std::uint64_t pc) override;
  void notify_useless(Addr addr, std::uint64_t pc) override;

  std::string name() const override { return "filtered-" + inner_->name(); }

  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t issued() const { return issued_; }

  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const override;

  void save_state(ckpt::Sink& s) const override;
  void load_state(ckpt::Source& s) override;
  template <class Ar>
  void fields(Ar& ar);

 private:
  std::vector<std::uint64_t> features(Addr addr, std::uint64_t pc) const;

  std::unique_ptr<Prefetcher> inner_;
  learn::Perceptron perceptron_;
  std::uint64_t dropped_ = 0;
  std::uint64_t issued_ = 0;
};

}  // namespace ima::cache
