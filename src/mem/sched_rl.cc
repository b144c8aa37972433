// Reinforcement-learning memory scheduler, after Ipek et al., "Self
// Optimizing Memory Controllers: A Reinforcement Learning Approach",
// ISCA 2008 [39] — the paper's flagship example of the data-driven
// principle.
//
// Formulation: each scheduling decision is an RL step.
//   state  = hashed controller attributes (queue occupancy, row-hit count,
//            issuable count, distinct banks with pending work, load skew)
//   action = which request class to serve next
//   reward = data bursts issued since the previous decision (bus
//            utilization, the same reward Ipek et al. use)
#include <algorithm>

#include "common/ckpt.hh"
#include "learn/qlearn.hh"
#include "mem/sched.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"

namespace ima::mem {

namespace {

enum RlAction : std::uint32_t {
  kServeRowHit = 0,      // FR-FCFS-like: oldest issuable row hit
  kServeOldest = 1,      // FCFS-like: oldest issuable
  kServeLeastServed = 2, // fairness: core with least attained service
  kServeLoadedBank = 3,  // throughput: request on the deepest bank queue
  kNumActions = 4,
};

constexpr const char* kActionNames[kNumActions] = {"row_hit", "oldest", "least_served",
                                                   "loaded_bank"};

class RlScheduler final : public Scheduler {
 public:
  RlScheduler(std::uint32_t num_cores, std::uint64_t seed, double alpha, double epsilon)
      : num_cores_(num_cores) {
    learn::QAgent::Config cfg;
    cfg.num_actions = kNumActions;
    cfg.table_entries = 1 << 14;
    cfg.alpha = alpha;
    cfg.gamma = 0.95;
    cfg.epsilon = epsilon;
    cfg.init_q = 0.5;  // optimistic: encourages early exploration of all arms
    cfg.seed = seed;
    agent_ = std::make_unique<learn::QAgent>(cfg);
  }

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    if (q.empty()) return kNoPick;
    const std::uint64_t s = scan(q, v);

    if (have_prev_) {
      const double reward = static_cast<double>(served_since_decision_);
      reward_.add(reward);
      agent_->learn(prev_state_, prev_action_, reward, s);
      // Decay exploration once learning is underway (GLIE-style schedule):
      // early decisions explore, steady state exploits.
      if (!frozen_)
        agent_->set_epsilon(std::max(0.005, agent_->epsilon() * 0.9997));
    }
    served_since_decision_ = 0;

    const std::uint32_t a = frozen_ ? agent_->act_greedy(s) : agent_->act(s);
    prev_state_ = s;
    prev_action_ = a;
    have_prev_ = true;
    ++decisions_;
    ++action_counts_[a];
    IMA_TRACE(trace_, .cycle = v.now, .kind = obs::EventKind::SchedDecision,
              .tid = static_cast<std::uint16_t>(a), .arg0 = a, .arg1 = s,
              .name = kActionNames[a]);

    const std::size_t i = select(q, v, static_cast<RlAction>(a));
    if (i != kNoPick) return i;
    // Fallback chain keeps the controller busy even when the chosen class
    // is empty — the agent still pays/earns via the reward signal.
    return oldest_ready_ != kNoPick ? oldest_ready_ : oldest_live_;
  }

  void on_service(const QueuedRequest&, const SchedView&) override {
    ++served_since_decision_;
  }

  // Every pick() is an RL step: it learns from the previous decision,
  // decays epsilon and draws from the RNG. Skipping a busy cycle would
  // drop a step and desynchronize the RNG stream between clock modes, so
  // the RL scheduler stays on the per-cycle cadence (it still benefits
  // from the memoized timing view).
  Cycle next_event(Cycle now) const override { return now + 1; }

  std::string name() const override { return "RL"; }

  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const override {
    reg.counter(obs::join_path(prefix, "decisions"), &decisions_);
    for (std::uint32_t a = 0; a < kNumActions; ++a)
      reg.counter(obs::join_path(prefix, std::string("action.") + kActionNames[a]),
                  &action_counts_[a]);
    reg.gauge(obs::join_path(prefix, "epsilon"), [this] { return agent_->epsilon(); });
    reg.running(obs::join_path(prefix, "reward"), &reward_);
  }

  void set_trace(obs::TraceSink* sink) override { trace_ = sink; }

  /// Freeze learning/exploration (evaluation mode).
  void freeze() { frozen_ = true; }

  const learn::QAgent& agent() const { return *agent_; }

  // The scan scratch (bank histogram, core loads, candidates) is rebuilt on
  // every pick, so only the learning state and decision counters persist.
  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(*agent_, prev_state_, prev_action_, have_prev_, frozen_, served_since_decision_, decisions_,
       action_counts_, reward_);
  }

 private:
  // One pass over the active queue: the state features, the per-bank load
  // histogram, the oldest issuable row hit / issuable / live entry (strict
  // `<` on arrival, so equal arrivals keep the lowest index) and the
  // issuable indices in queue order — everything select() and the fallback
  // chain read. The histogram is a slab over flat bank ids, sized from the
  // geometry; a slot counts only while its stamp matches the current token,
  // so clearing it is one counter bump.
  std::uint64_t scan(const std::vector<QueuedRequest>& q, const SchedView& v) {
    const std::size_t banks = v.bank_count();
    if (bank_load_.size() != banks) {
      bank_load_.assign(banks, 0);
      bank_stamp_.assign(banks, 0);
    }
    ++stamp_token_;
    core_load_.assign(num_cores_, 0);
    ready_.clear();
    oldest_hit_ = oldest_ready_ = oldest_live_ = kNoPick;
    Cycle hit_arrive = 0, ready_arrive = 0, live_arrive = 0;
    std::uint32_t live = 0, hits = 0, distinct_banks = 0, max_core_load = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i)) continue;
      const Request& r = q[i].req;
      ++live;
      if (oldest_live_ == kNoPick || r.arrive < live_arrive) {
        oldest_live_ = i;
        live_arrive = r.arrive;
      }
      // Class 1 is never a row hit; class 0 may be one not yet legal.
      const int cls = v.issue_class(i);
      if (cls == 2 || (cls == 0 && v.row_hit(i))) ++hits;
      if (cls != 0) {
        ready_.push_back(static_cast<std::uint32_t>(i));
        if (oldest_ready_ == kNoPick || r.arrive < ready_arrive) {
          oldest_ready_ = i;
          ready_arrive = r.arrive;
        }
        if (cls == 2 && (oldest_hit_ == kNoPick || r.arrive < hit_arrive)) {
          oldest_hit_ = i;
          hit_arrive = r.arrive;
        }
      }
      const std::uint32_t b = v.bank(i);
      if (bank_stamp_[b] != stamp_token_) {
        bank_stamp_[b] = stamp_token_;
        bank_load_[b] = 0;
        ++distinct_banks;
      }
      ++bank_load_[b];
      if (r.core < num_cores_) max_core_load = std::max(max_core_load, ++core_load_[r.core]);
    }
    auto bucket = [](std::uint32_t x) -> std::uint64_t {  // log2-ish buckets
      std::uint64_t b = 0;
      while (x > 0 && b < 7) {
        x >>= 1;
        ++b;
      }
      return b;
    };
    learn::StateHash h;
    h.add(bucket(live))
        .add(bucket(hits))
        .add(bucket(static_cast<std::uint32_t>(ready_.size())))
        .add(bucket(distinct_banks))
        .add(bucket(max_core_load));
    return h.value();
  }

  // Reads the candidates scan() left for this pick; kNoPick when the
  // chosen class is empty.
  std::size_t select(const std::vector<QueuedRequest>& q, const SchedView& v, RlAction a) const {
    switch (a) {
      case kServeRowHit:
        return oldest_hit_;
      case kServeOldest:
        return oldest_ready_;
      case kServeLeastServed: {
        auto service = [&](std::uint32_t core) -> std::uint64_t {
          if (!v.cores || core >= v.cores->size()) return 0;
          return (*v.cores)[core].attained_service;
        };
        std::size_t best = kNoPick;
        std::uint64_t best_service = 0;
        for (const std::uint32_t i : ready_) {
          const std::uint64_t sv = service(q[i].req.core);
          if (best == kNoPick || sv < best_service) {
            best = i;
            best_service = sv;
          }
        }
        return best;
      }
      case kServeLoadedBank: {
        std::size_t best = kNoPick;
        std::uint32_t best_load = 0;
        for (const std::uint32_t i : ready_) {
          const std::uint32_t load = bank_load_[v.bank(i)];
          if (best == kNoPick || load > best_load) {
            best = i;
            best_load = load;
          }
        }
        return best;
      }
      default:
        return kNoPick;
    }
  }

  std::uint32_t num_cores_;
  std::unique_ptr<learn::QAgent> agent_;
  std::uint64_t prev_state_ = 0;
  std::uint32_t prev_action_ = 0;
  bool have_prev_ = false;
  bool frozen_ = false;
  std::uint64_t served_since_decision_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t action_counts_[kNumActions] = {};
  RunningStat reward_;
  obs::TraceSink* trace_ = nullptr;
  // Per-pick scratch filled by scan() — see there.
  std::vector<std::uint32_t> bank_load_;
  std::vector<std::uint64_t> bank_stamp_;
  std::uint64_t stamp_token_ = 0;
  std::vector<std::uint32_t> core_load_;
  std::vector<std::uint32_t> ready_;
  std::size_t oldest_hit_ = kNoPick;
  std::size_t oldest_ready_ = kNoPick;
  std::size_t oldest_live_ = kNoPick;
};

}  // namespace

std::unique_ptr<Scheduler> make_rl(std::uint32_t num_cores, std::uint64_t seed, double alpha,
                                   double epsilon) {
  return std::make_unique<RlScheduler>(num_cores, seed, alpha, epsilon);
}

const char* to_string(SchedKind k) {
  switch (k) {
    case SchedKind::Fcfs: return "FCFS";
    case SchedKind::FrFcfs: return "FR-FCFS";
    case SchedKind::FrFcfsCap: return "FR-FCFS-Cap";
    case SchedKind::ParBs: return "PAR-BS";
    case SchedKind::Atlas: return "ATLAS";
    case SchedKind::Tcm: return "TCM";
    case SchedKind::Bliss: return "BLISS";
    case SchedKind::Rl: return "RL";
  }
  return "?";
}

// Declared in the per-family translation units.
std::unique_ptr<Scheduler> make_fcfs();
std::unique_ptr<Scheduler> make_frfcfs();
std::unique_ptr<Scheduler> make_frfcfs_cap(std::uint32_t cap);
std::unique_ptr<Scheduler> make_bliss(std::uint32_t num_cores);
std::unique_ptr<Scheduler> make_parbs(std::uint32_t num_cores);
std::unique_ptr<Scheduler> make_atlas();
std::unique_ptr<Scheduler> make_tcm(std::uint32_t num_cores, std::uint64_t seed);

std::unique_ptr<Scheduler> make_scheduler(SchedKind kind, std::uint32_t num_cores,
                                          std::uint64_t seed) {
  switch (kind) {
    case SchedKind::Fcfs: return make_fcfs();
    case SchedKind::FrFcfs: return make_frfcfs();
    case SchedKind::FrFcfsCap: return make_frfcfs_cap(4);
    case SchedKind::ParBs: return make_parbs(num_cores);
    case SchedKind::Atlas: return make_atlas();
    case SchedKind::Tcm: return make_tcm(num_cores, seed);
    case SchedKind::Bliss: return make_bliss(num_cores);
    case SchedKind::Rl: return make_rl(num_cores, seed, 0.1, 0.05);
  }
  return make_frfcfs();
}

}  // namespace ima::mem
