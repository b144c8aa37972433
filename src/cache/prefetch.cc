#include "cache/prefetch.hh"

#include "common/ckpt.hh"
#include "obs/stat_registry.hh"

namespace ima::cache {

namespace {

class NoPrefetcher final : public Prefetcher {
 public:
  void observe(Addr, std::uint64_t, bool, std::vector<PrefetchRequest>&) override {}
  std::string name() const override { return "none"; }
};

class NextLine final : public Prefetcher {
 public:
  explicit NextLine(std::uint32_t degree) : degree_(degree) {}

  void observe(Addr addr, std::uint64_t pc, bool was_miss,
               std::vector<PrefetchRequest>& out) override {
    if (!was_miss) return;
    for (std::uint32_t d = 1; d <= degree_; ++d)
      out.push_back({line_base(addr) + static_cast<Addr>(d) * kLineBytes, pc});
  }

  std::string name() const override { return "next-line"; }

 private:
  std::uint32_t degree_;
};

class StridePrefetcher final : public Prefetcher {
 public:
  StridePrefetcher(std::uint32_t table_size, std::uint32_t degree)
      : table_size_(table_size), degree_(degree) {}

  void observe(Addr addr, std::uint64_t pc, bool, std::vector<PrefetchRequest>& out) override {
    Entry& e = table_[pc % table_size_];
    if (e.pc == pc) {
      const auto stride = static_cast<std::int64_t>(addr) - static_cast<std::int64_t>(e.last);
      if (stride != 0 && stride == e.stride) {
        if (e.confidence < 3) ++e.confidence;
      } else {
        e.stride = stride;
        e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
      }
      e.last = addr;
      if (e.confidence >= 2 && e.stride != 0) {
        for (std::uint32_t d = 1; d <= degree_; ++d) {
          const auto target =
              static_cast<std::int64_t>(addr) + static_cast<std::int64_t>(d) * e.stride;
          if (target > 0) out.push_back({line_base(static_cast<Addr>(target)), pc});
        }
      }
    } else {
      e = Entry{pc, addr, 0, 0};
    }
  }

  std::string name() const override { return "stride"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar.section("stride");
    ar(table_);
  }

 private:
  struct Entry {
    std::uint64_t pc = 0;
    Addr last = 0;
    std::int64_t stride = 0;
    std::uint32_t confidence = 0;

    template <class Ar>
    void fields(Ar& ar) {
      ar(pc, last, stride, confidence);
    }
  };
  std::uint32_t table_size_;
  std::uint32_t degree_;
  std::unordered_map<std::uint64_t, Entry> table_;
};

/// Global History Buffer, delta-correlation flavour: keeps the recent miss
/// addresses; on a miss, finds the last occurrence of the current pair of
/// deltas and replays the deltas that followed it.
class GhbDelta final : public Prefetcher {
 public:
  GhbDelta(std::uint32_t history, std::uint32_t degree) : history_(history), degree_(degree) {}

  void observe(Addr addr, std::uint64_t pc, bool was_miss,
               std::vector<PrefetchRequest>& out) override {
    if (!was_miss) return;
    const Addr line = line_base(addr);
    ghb_.push_back(line);
    if (ghb_.size() > history_) ghb_.pop_front();
    if (ghb_.size() < 4) return;

    const auto n = ghb_.size();
    const std::int64_t d1 = delta(n - 2, n - 1);
    const std::int64_t d2 = delta(n - 3, n - 2);
    // Search backwards for the same delta pair.
    for (std::size_t i = n - 2; i >= 3; --i) {
      if (delta(i - 1, i) == d1 && delta(i - 2, i - 1) == d2) {
        Addr p = line;
        for (std::uint32_t d = 0; d < degree_ && i + d + 1 < n; ++d) {
          const std::int64_t next_delta = delta(i + d, i + d + 1);
          const auto target = static_cast<std::int64_t>(p) + next_delta;
          if (target <= 0) break;
          p = static_cast<Addr>(target);
          out.push_back({p, pc});
        }
        return;
      }
      if (i == 3) break;
    }
  }

  std::string name() const override { return "ghb-delta"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar.section("ghb");
    ar(ghb_);
  }

 private:
  std::int64_t delta(std::size_t a, std::size_t b) const {
    return static_cast<std::int64_t>(ghb_[b]) - static_cast<std::int64_t>(ghb_[a]);
  }
  std::uint32_t history_;
  std::uint32_t degree_;
  std::deque<Addr> ghb_;
};

}  // namespace

std::unique_ptr<Prefetcher> make_no_prefetcher() { return std::make_unique<NoPrefetcher>(); }
std::unique_ptr<Prefetcher> make_next_line(std::uint32_t degree) {
  return std::make_unique<NextLine>(degree);
}
std::unique_ptr<Prefetcher> make_stride(std::uint32_t table_size, std::uint32_t degree) {
  return std::make_unique<StridePrefetcher>(table_size, degree);
}
std::unique_ptr<Prefetcher> make_ghb_delta(std::uint32_t history, std::uint32_t degree) {
  return std::make_unique<GhbDelta>(history, degree);
}

FeedbackPrefetcher::FeedbackPrefetcher() : FeedbackPrefetcher(Config{}) {}

FeedbackPrefetcher::FeedbackPrefetcher(Config cfg)
    : cfg_(cfg), degree_((cfg.min_degree + cfg.max_degree) / 2),
      inner_(make_stride(256, cfg.max_degree)) {}

void FeedbackPrefetcher::observe(Addr addr, std::uint64_t pc, bool was_miss,
                                 std::vector<PrefetchRequest>& out) {
  if (degree_ == 0) {
    // Keep the detector trained even while throttled off.
    std::vector<PrefetchRequest> discard;
    inner_->observe(addr, pc, was_miss, discard);
    return;
  }
  std::vector<PrefetchRequest> candidates;
  inner_->observe(addr, pc, was_miss, candidates);
  if (candidates.size() > degree_) candidates.resize(degree_);
  out.insert(out.end(), candidates.begin(), candidates.end());
}

void FeedbackPrefetcher::notify_useful(Addr, std::uint64_t) {
  ++useful_;
  ++total_useful_;
  maybe_adjust();
}

void FeedbackPrefetcher::notify_useless(Addr, std::uint64_t) {
  ++useless_;
  ++total_useless_;
  maybe_adjust();
}

void FeedbackPrefetcher::register_stats(obs::StatRegistry& reg,
                                        const std::string& prefix) const {
  reg.counter(obs::join_path(prefix, "useful"), &total_useful_);
  reg.counter(obs::join_path(prefix, "useless"), &total_useless_);
  reg.gauge(obs::join_path(prefix, "degree"),
            [this] { return static_cast<double>(degree_); });
}

template <class Ar>
void FeedbackPrefetcher::fields(Ar& ar) {
  ar.section("feedback");
  ar(degree_, useful_, useless_, total_useful_, total_useless_, *inner_);
}
void FeedbackPrefetcher::save_state(ckpt::Sink& s) const { s(*this); }
void FeedbackPrefetcher::load_state(ckpt::Source& s) { s(*this); }

void FeedbackPrefetcher::maybe_adjust() {
  if (useful_ + useless_ < cfg_.sample_interval) return;
  const double accuracy =
      static_cast<double>(useful_) / static_cast<double>(useful_ + useless_);
  if (accuracy >= cfg_.high_accuracy && degree_ < cfg_.max_degree) ++degree_;
  else if (accuracy <= cfg_.low_accuracy && degree_ > cfg_.min_degree) --degree_;
  useful_ = useless_ = 0;
}

FilteredPrefetcher::FilteredPrefetcher(std::unique_ptr<Prefetcher> inner,
                                       std::size_t table_entries)
    : inner_(std::move(inner)),
      perceptron_([&] {
        learn::Perceptron::Config cfg;
        cfg.num_features = 3;
        cfg.table_entries = table_entries;
        return cfg;
      }()) {}

std::vector<std::uint64_t> FilteredPrefetcher::features(Addr addr, std::uint64_t pc) const {
  // Feature set: PC, line address, PC^page — per the perceptron-filter
  // literature, a mixture of control-flow and spatial context.
  return {pc, addr / kLineBytes, pc ^ (addr >> 12)};
}

void FilteredPrefetcher::observe(Addr addr, std::uint64_t pc, bool was_miss,
                                 std::vector<PrefetchRequest>& out) {
  std::vector<PrefetchRequest> candidates;
  inner_->observe(addr, pc, was_miss, candidates);
  for (const auto& c : candidates) {
    if (perceptron_.predict(features(c.addr, c.pc))) {
      out.push_back(c);
      ++issued_;
    } else {
      ++dropped_;
    }
  }
}

void FilteredPrefetcher::notify_useful(Addr addr, std::uint64_t pc) {
  perceptron_.train(features(addr, pc), true);
}

void FilteredPrefetcher::notify_useless(Addr addr, std::uint64_t pc) {
  perceptron_.train(features(addr, pc), false);
}

template <class Ar>
void FilteredPrefetcher::fields(Ar& ar) {
  ar.section("filtered");
  ar(dropped_, issued_, perceptron_, *inner_);
}
void FilteredPrefetcher::save_state(ckpt::Sink& s) const { s(*this); }
void FilteredPrefetcher::load_state(ckpt::Source& s) { s(*this); }

void FilteredPrefetcher::register_stats(obs::StatRegistry& reg,
                                        const std::string& prefix) const {
  reg.counter(obs::join_path(prefix, "issued"), &issued_);
  reg.counter(obs::join_path(prefix, "dropped"), &dropped_);
}

}  // namespace ima::cache
