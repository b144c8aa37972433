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
#include <bit>
#include <cassert>

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
    assert(v.queue < 2);
    ScanMemo& m = memo_[v.queue];
    if (v.queue_version == 0 || v.queue_version != m.queue_version ||
        v.cache->channel().state_version() != m.chan_version || v.now >= m.valid_until)
      scan(q, v, m);
    const std::uint64_t s = m.state;

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

    const std::size_t i = select(q, v, m, static_cast<RlAction>(a));
    if (i != kNoPick) return i;
    // Fallback chain keeps the controller busy even when the chosen class
    // is empty — the agent still pays/earns via the reward signal.
    return m.oldest_ready != kNoPick ? m.oldest_ready : m.oldest_live;
  }

  void on_service(const QueuedRequest&, const SchedView&) override {
    ++served_since_decision_;
  }

  // Every pick() is an RL step: it learns from the previous decision,
  // decays epsilon and draws from the RNG. Skipping a busy cycle would
  // drop a step and desynchronize the RNG stream between clock modes, so
  // the RL scheduler stays on the per-cycle cadence; what it skips instead
  // is the queue scan, which the scan memo reuses while its key holds.
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

  // Only the learning state and decision counters persist. The scan memo
  // is scratch keyed on the controller's queue stamps, which a restore
  // restarts, so loading drops both slots: a stale slot could otherwise
  // match a restarted stamp on different contents.
  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override {
    s(*this);
    for (ScanMemo& m : memo_) m.queue_version = 0;
  }
  template <class Ar>
  void fields(Ar& ar) {
    ar(*agent_, prev_state_, prev_action_, have_prev_, frozen_, served_since_decision_, decisions_,
       action_counts_, reward_);
  }

 private:
  // One queue's scan result, reused while its key holds: the same queue
  // stamp (contents and order unchanged), the same channel state version
  // (open rows and every timing horizon unchanged) and `now` below
  // valid_until, the first cycle a not-yet-legal entry can turn legal.
  // Exact because each entry's legal cycle is max(now, h) with h fixed
  // under an unchanged version, so no entry changes class before
  // valid_until. queue_version 0 marks the slot invalid.
  struct ScanMemo {
    std::uint64_t queue_version = 0;
    std::uint64_t chan_version = 0;
    Cycle valid_until = 0;
    std::uint64_t state = 0;  // hashed features
    std::vector<std::uint32_t> ready;  // issuable indices in queue order
    std::vector<std::uint32_t> bank_load;  // live entries per occupied flat bank
    std::size_t oldest_hit = kNoPick;
    std::size_t oldest_ready = kNoPick;
    std::size_t oldest_live = kNoPick;
  };

  // Fills `m` with the state features, the per-bank load, the oldest
  // issuable row hit / issuable / live entry (the first of each in the
  // arrival-ordered queue), the issuable indices in queue order —
  // everything select() and the fallback chain read — and the memo key.
  //
  // The features come from the queue's occupancy counts (SchedView::occ),
  // one fold over its occupied units: every entry of a unit shares one of
  // two command classes (the open-row hits, `match` of them, and the rest,
  // which need ACT at a closed unit or PRE at an open one), so each class
  // contributes its count to `ready` when its command is legal now and its
  // legal cycle to valid_until otherwise. Units are sorted, so a bank's
  // SALP subarrays are adjacent and roll up into per-bank load and the
  // distinct-bank count as the fold goes. Only when something is ready
  // does one pass over the entries pick out the ready ones (those whose
  // unit marked their class).
  void scan(const std::vector<QueuedRequest>& q, const SchedView& v, ScanMemo& m) {
    assert(v.occ && "RL reads its state off the queue's occupancy counts");
    const QueueOcc& oc = *v.occ;
    const dram::Channel& chan = v.cache->channel();
    const bool write = v.queue == 1;
    if (m.bank_load.size() != v.bank_count()) m.bank_load.assign(v.bank_count(), 0);
    if (unit_mark_.size() != chan.unit_count()) unit_mark_.assign(chan.unit_count(), UnitMark{});
    ++mark_token_;
    Cycle valid_until = kCycleNever;
    std::uint32_t hits = 0, ready = 0, distinct_banks = 0, max_core_load = 0;
    std::uint32_t bank = ~0u;
    for (const std::uint32_t u : oc.units) {
      const QueueOcc::Unit c = oc.cnt[u];
      const std::uint32_t b = chan.bank_of_unit(u);
      if (b != bank) {
        bank = b;
        ++distinct_banks;
        m.bank_load[b] = 0;
      }
      m.bank_load[b] += c.total;
      const bool open = chan.unit_open(u);
      const std::uint32_t n_hit = open ? c.match : 0;
      hits += n_hit;
      const SchedTimingCache::UnitTiming t = v.cache->unit_timing(u, write);
      std::uint32_t bits = 0;
      const auto fold = [&](std::uint32_t n, Cycle at, std::uint32_t bit) {
        if (n == 0) return;
        if (at <= v.now) {
          ready += n;
          bits |= bit;
        } else {
          valid_until = std::min(valid_until, at);
        }
      };
      fold(n_hit, t.hit, kHitReady);
      fold(c.total - n_hit, t.miss, kMissReady);
      if (bits) unit_mark_[u] = UnitMark{mark_token_, open ? chan.unit_row(u) : kNoRow, bits};
    }
    const std::size_t cores = std::min<std::size_t>(num_cores_, oc.core_live.size());
    for (std::size_t c = 0; c < cores; ++c) max_core_load = std::max(max_core_load, oc.core_live[c]);

    m.ready.clear();
    m.oldest_hit = m.oldest_ready = m.oldest_live = kNoPick;
    if (ready > 0) {
      entry_pass(q, v, m);
      assert(m.ready.size() == ready);
    } else {
      for (std::size_t i = 0; i < q.size(); ++i) {
        if (v.live(i)) {
          m.oldest_live = i;
          break;
        }
      }
    }

    // log2-ish buckets: the bit width, capped at 7.
    const auto bucket = [](std::uint64_t x) -> std::uint64_t {
      return std::min<std::uint64_t>(static_cast<std::uint64_t>(std::bit_width(x)), 7);
    };
    learn::StateHash h;
    h.add(bucket(oc.live))
        .add(bucket(hits))
        .add(bucket(ready))
        .add(bucket(distinct_banks))
        .add(bucket(max_core_load));
    m.state = h.value();
    m.queue_version = v.queue_version;
    m.chan_version = chan.state_version();
    m.valid_until = valid_until;
  }

  // The entry pass of scan(): the ready entries in queue order (live
  // entries whose unit marked their class) and the oldest ready,
  // ready-hit and live entries, which on the arrival-ordered queue are the
  // first of each class. Every index is written and the ready count
  // advances by a flag, so the loop carries few branches.
  void entry_pass(const std::vector<QueuedRequest>& q, const SchedView& v, ScanMemo& m) {
    m.ready.resize(q.size());
    std::uint32_t* out = m.ready.data();
    std::size_t n = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      const QueueScanMeta& e = v.meta[i];
      const UnitMark& mark = unit_mark_[e.unit];
      const bool live = (e.flags & QueueScanMeta::kLive) != 0;
      const bool hit = e.row == mark.row;
      const bool ready = live & (mark.token == mark_token_) &
                         ((mark.bits & (hit ? kHitReady : kMissReady)) != 0);
      out[n] = static_cast<std::uint32_t>(i);
      n += ready;
      if (live && m.oldest_live == kNoPick) m.oldest_live = i;
      if (ready && hit && m.oldest_hit == kNoPick) m.oldest_hit = i;
    }
    m.ready.resize(n);
    m.oldest_ready = n > 0 ? m.ready[0] : kNoPick;
  }

  // Reads the candidates scan() left in `m`; kNoPick when the chosen class
  // is empty. Never memoized: least-served reads the cores' attained
  // service, which moves without touching this queue.
  std::size_t select(const std::vector<QueuedRequest>& q, const SchedView& v, const ScanMemo& m,
                     RlAction a) const {
    switch (a) {
      case kServeRowHit:
        return m.oldest_hit;
      case kServeOldest:
        return m.oldest_ready;
      case kServeLeastServed: {
        auto service = [&](std::uint32_t core) -> std::uint64_t {
          if (!v.cores || core >= v.cores->size()) return 0;
          return (*v.cores)[core].attained_service;
        };
        std::size_t best = kNoPick;
        std::uint64_t best_service = 0;
        for (const std::uint32_t i : m.ready) {
          const std::uint64_t sv = service(q[i].core);
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
        for (const std::uint32_t i : m.ready) {
          const std::uint32_t load = m.bank_load[v.bank(i)];
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
  // Scratch outside fields(): the scan memo, one slot per controller queue
  // (reads and writes alternate on most cycles, so one slot would thrash),
  // and the per-unit ready marks of the latest scan: which classes are
  // legal and the unit's open row (kNoRow when closed), current only while
  // the token matches, so clearing them is one bump.
  static constexpr std::uint32_t kHitReady = 1;
  static constexpr std::uint32_t kMissReady = 2;
  static constexpr std::uint32_t kNoRow = ~0u;  // a closed unit: no entry hits
  struct UnitMark {
    std::uint64_t token = 0;
    std::uint32_t row = kNoRow;
    std::uint32_t bits = 0;
  };
  ScanMemo memo_[2];
  std::uint64_t mark_token_ = 0;
  std::vector<UnitMark> unit_mark_;
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
