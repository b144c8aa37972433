// Application-aware ranking schedulers: PAR-BS (batching), ATLAS
// (least-attained-service), TCM (thread clustering). These represent the
// most sophisticated human-designed policies the paper contrasts with
// data-driven controllers.
#include <algorithm>
#include <map>
#include <numeric>

#include "common/ckpt.hh"
#include "common/rng.hh"
#include "mem/sched.hh"

namespace ima::mem {

namespace {

/// PAR-BS (Mutlu & Moscibroda, ISCA 2008): requests are grouped into
/// batches (up to `kMarkCap` oldest per core per bank); the whole batch is
/// serviced before newer requests, which bounds intra-batch starvation;
/// within a batch cores are ranked shortest-job-first.
class ParBsScheduler final : public Scheduler {
 public:
  explicit ParBsScheduler(std::uint32_t num_cores) : num_cores_(num_cores) {}

  void tick(const SchedView& v, std::vector<QueuedRequest>& q) override {
    bool any_marked = false, any_live = false;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i)) continue;
      any_live = true;
      if (q[i].marked) { any_marked = true; break; }
    }
    if (any_marked || !any_live) return;

    // Form a new batch: mark the kMarkCap oldest requests per (core, bank).
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> marked_count;
    std::vector<std::size_t> order;
    order.reserve(q.size());
    for (std::size_t i = 0; i < q.size(); ++i)
      if (v.live(i)) order.push_back(i);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return q[a].arrive < q[b].arrive; });
    for (std::size_t i : order) {
      const auto key = std::make_pair(q[i].core, bank_key(q[i].coord));
      if (marked_count[key] < kMarkCap) {
        q[i].marked = true;
        ++marked_count[key];
      }
    }

    // Rank cores: lowest maximum per-bank marked load first (shortest job).
    std::map<std::uint32_t, std::uint32_t> max_bank_load;
    for (const auto& [key, count] : marked_count)
      max_bank_load[key.first] = std::max(max_bank_load[key.first], count);
    core_rank_.assign(num_cores_, 0);
    std::vector<std::uint32_t> cores;
    for (std::uint32_t c = 0; c < num_cores_; ++c) cores.push_back(c);
    std::sort(cores.begin(), cores.end(), [&](std::uint32_t a, std::uint32_t b) {
      const auto la = max_bank_load.count(a) ? max_bank_load[a] : 0;
      const auto lb = max_bank_load.count(b) ? max_bank_load[b] : 0;
      return la < lb;
    });
    for (std::uint32_t rank = 0; rank < cores.size(); ++rank) core_rank_[cores[rank]] = rank;
  }

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    // Priority: marked > row-hit > core rank > age; only issuable requests.
    // The best element's key lives in locals so each candidate is scored
    // once (the old comparator re-derived row_hit/rank for both sides on
    // every element — measurably hot under saturated queues). Age needs
    // no term: the queue is in arrival order, so on equal keys the first
    // candidate, which keeps the slot, is the oldest.
    std::size_t best = kNoPick, any = kNoPick;
    bool b_marked = false, b_hit = false;
    std::uint32_t b_rank = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i)) continue;
      const QueuedRequest& r = q[i];
      if (any == kNoPick) any = i;
      const int cls = v.issue_class(i);
      if (cls == 0) continue;
      const bool hit = cls == 2;
      const std::uint32_t rank = rank_of(r.core);
      const bool better = best == kNoPick ||
          (r.marked != b_marked ? r.marked
           : hit != b_hit       ? hit
                                : rank < b_rank);
      if (better) {
        best = i;
        b_marked = r.marked;
        b_hit = hit;
        b_rank = rank;
      }
    }
    return best != kNoPick ? best : any;
  }

  // Batch formation is arrival-time-sensitive: it fires on the first tick
  // after the previous batch drains, and requests that arrive during a
  // skipped gap would otherwise be marked into a batch that the per-cycle
  // reference formed without them. Stay on the per-cycle cadence.
  Cycle next_event(Cycle now) const override { return now + 1; }

  // Batch formation happens in tick; pick only reads marks and ranks.
  bool pick_is_pure() const override { return true; }

  std::string name() const override { return "PAR-BS"; }

  // Batch membership (the `marked` bits) lives on the queue entries and is
  // gone at the quiescent checkpoint point; only the core ranking persists.
  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(core_rank_);
  }

 private:
  static constexpr std::uint32_t kMarkCap = 5;
  static std::uint64_t bank_key(const dram::Coord& c) {
    return (static_cast<std::uint64_t>(c.rank) << 8) | c.bank;
  }
  std::uint32_t rank_of(std::uint32_t core) const {
    return core < core_rank_.size() ? core_rank_[core] : num_cores_;
  }

  std::uint32_t num_cores_;
  std::vector<std::uint32_t> core_rank_;
};

/// ATLAS (Kim et al., HPCA 2010): over long quanta, rank cores by total
/// attained service; least-attained-service first.
class AtlasScheduler final : public Scheduler {
 public:
  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    auto service = [&](std::uint32_t core) -> std::uint64_t {
      if (!v.cores || core >= v.cores->size()) return 0;
      return (*v.cores)[core].attained_service;
    };
    // Single scan, best key in locals (service asc, row-hit desc; age asc
    // is queue order, so the first of equal keys keeps the slot).
    std::size_t best = kNoPick, any = kNoPick;
    std::uint64_t b_service = 0;
    bool b_hit = false;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i)) continue;
      const QueuedRequest& r = q[i];
      if (any == kNoPick) any = i;
      const int cls = v.issue_class(i);
      if (cls == 0) continue;
      const std::uint64_t s = service(r.core);
      const bool hit = cls == 2;
      const bool better = best == kNoPick || (s != b_service ? s < b_service : hit && !b_hit);
      if (better) {
        best = i;
        b_service = s;
        b_hit = hit;
      }
    }
    return best != kNoPick ? best : any;
  }

  // Attained service changes on service only (the controller updates it);
  // nothing here is clocked.
  Cycle next_event(Cycle) const override { return kCycleNever; }

  bool pick_is_pure() const override { return true; }

  std::string name() const override { return "ATLAS"; }
};

/// TCM (Kim et al., MICRO 2010): periodically cluster cores into a
/// latency-sensitive group (low bandwidth demand — always prioritized) and
/// a bandwidth-heavy group whose internal ranking is shuffled to spread
/// interference.
class TcmScheduler final : public Scheduler {
 public:
  TcmScheduler(std::uint32_t num_cores, std::uint64_t seed)
      : num_cores_(num_cores),
        quantum_service_(num_cores, 0),
        cluster_(num_cores, 0),
        shuffle_rank_(num_cores, 0),
        rng_(seed) {
    for (std::uint32_t c = 0; c < num_cores; ++c) shuffle_rank_[c] = c;
  }

  void on_service(const QueuedRequest& r, const SchedView&) override {
    if (r.core < num_cores_) ++quantum_service_[r.core];
  }

  void tick(const SchedView& v, std::vector<QueuedRequest>&) override {
    if (v.now >= next_quantum_) {
      recluster();
      next_quantum_ = v.now + kQuantum;
    }
    if (v.now >= next_shuffle_) {
      shuffle();
      next_shuffle_ = v.now + kShuffle;
    }
  }

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    // Single scan with the best key in locals. Within the latency cluster
    // the shuffle rank never participates in the old comparator, so the
    // key maps cluster-0 cores to shuffle 0 — identical ordering. Age is
    // queue order: the first of equal keys keeps the slot.
    std::size_t best = kNoPick, any = kNoPick;
    std::uint8_t b_cluster = 0;
    std::uint32_t b_shuffle = 0;
    bool b_hit = false;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i)) continue;
      const QueuedRequest& r = q[i];
      if (any == kNoPick) any = i;
      const int cls = v.issue_class(i);
      if (cls == 0) continue;
      const std::uint8_t c = cluster_of(r.core);
      const std::uint32_t s = c == 1 ? shuffle_of(r.core) : 0;
      const bool hit = cls == 2;
      const bool better = best == kNoPick ||
          (c != b_cluster   ? c < b_cluster  // latency cluster (0) first
           : s != b_shuffle ? s < b_shuffle  // bandwidth cluster: shuffled
                            : hit && !b_hit);
      if (better) {
        best = i;
        b_cluster = c;
        b_shuffle = s;
        b_hit = hit;
      }
    }
    return best != kNoPick ? best : any;
  }

  // Quantum recluster and rank shuffle fire at fixed boundaries; the
  // shuffle consumes RNG draws, so both clock modes must run it at the
  // exact same cycles. Values <= now (boundary passed, tick starved of the
  // slot) degrade to per-cycle via the controller's clamp.
  Cycle next_event(Cycle) const override {
    return std::min(next_quantum_, next_shuffle_);
  }

  // Recluster/shuffle (and their RNG draws) happen in tick; pick only
  // reads the cluster and shuffle tables.
  bool pick_is_pure() const override { return true; }

  std::string name() const override { return "TCM"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(quantum_service_, cluster_, shuffle_rank_, rng_, next_quantum_, next_shuffle_);
  }

 private:
  static constexpr Cycle kQuantum = 100000;
  static constexpr Cycle kShuffle = 800;
  static constexpr double kLatencyClusterShare = 0.15;

  std::uint8_t cluster_of(std::uint32_t core) const {
    return core < num_cores_ ? cluster_[core] : 1;
  }
  std::uint32_t shuffle_of(std::uint32_t core) const {
    return core < num_cores_ ? shuffle_rank_[core] : num_cores_;
  }

  void recluster() {
    const std::uint64_t total =
        std::accumulate(quantum_service_.begin(), quantum_service_.end(), std::uint64_t{0});
    // Cores are latency-sensitive until their cumulative demand exceeds the
    // latency-cluster bandwidth share.
    std::vector<std::uint32_t> order(num_cores_);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return quantum_service_[a] < quantum_service_[b];
    });
    std::uint64_t used = 0;
    const auto budget = static_cast<std::uint64_t>(kLatencyClusterShare * static_cast<double>(total));
    for (std::uint32_t c : order) {
      used += quantum_service_[c];
      cluster_[c] = (used <= budget) ? 0 : 1;
    }
    std::fill(quantum_service_.begin(), quantum_service_.end(), 0);
  }

  void shuffle() {
    for (std::uint32_t i = num_cores_; i > 1; --i) {
      const auto j = static_cast<std::uint32_t>(rng_.next_below(i));
      std::swap(shuffle_rank_[i - 1], shuffle_rank_[j]);
    }
  }

  std::uint32_t num_cores_;
  std::vector<std::uint64_t> quantum_service_;
  std::vector<std::uint8_t> cluster_;
  std::vector<std::uint32_t> shuffle_rank_;
  Rng rng_;
  Cycle next_quantum_ = kQuantum;
  Cycle next_shuffle_ = kShuffle;
};

}  // namespace

std::unique_ptr<Scheduler> make_parbs(std::uint32_t num_cores) {
  return std::make_unique<ParBsScheduler>(num_cores);
}
std::unique_ptr<Scheduler> make_atlas() { return std::make_unique<AtlasScheduler>(); }
std::unique_ptr<Scheduler> make_tcm(std::uint32_t num_cores, std::uint64_t seed) {
  return std::make_unique<TcmScheduler>(num_cores, seed);
}

}  // namespace ima::mem
