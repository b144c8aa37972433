// First-ready and blacklisting schedulers: FCFS, FR-FCFS, FR-FCFS+Cap,
// BLISS. These are the "rigid, human-designed" policies the paper's
// data-driven critique targets; they double as baselines for the RL
// scheduler.
#include <algorithm>
#include <unordered_map>

#include "common/ckpt.hh"
#include "mem/sched.hh"

namespace ima::mem {

namespace {

/// FCFS: oldest issuable request; oldest overall if none is issuable
/// (so the controller still makes progress via ACT/PRE on its behalf).
class FcfsScheduler final : public Scheduler {
 public:
  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    // The queue is in arrival order, so the oldest issuable entry is the
    // first one, and the first live entry is the oldest overall.
    std::size_t any = kNoPick;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i)) continue;
      if (any == kNoPick) any = i;
      if (v.issue_class(i) != 0) return i;
    }
    return any;
  }
  // Decisions depend only on queue/bank state, which is frozen across any
  // gap where no command can issue.
  Cycle next_event(Cycle) const override { return kCycleNever; }
  bool pick_is_pure() const override { return true; }
  std::string name() const override { return "FCFS"; }
};

/// FR-FCFS (Rixner et al., ISCA 2000): row hits first, then oldest.
class FrFcfsScheduler final : public Scheduler {
 public:
  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    // Fused hit/ready/any scan: each priority class is a subset of the
    // next, and on an arrival-ordered queue the oldest of a class is its
    // first member, so one pass returns at the first issuable row hit and
    // otherwise remembers the first issuable and first live entries (this
    // is the single hottest loop in a loaded simulation).
    std::size_t ready = kNoPick, any = kNoPick;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i)) continue;
      if (any == kNoPick) any = i;
      const int cls = v.issue_class(i);
      if (cls == 0) continue;
      if (cls == 2) return i;
      if (ready == kNoPick) ready = i;
    }
    return ready != kNoPick ? ready : any;
  }
  Cycle next_event(Cycle) const override { return kCycleNever; }
  bool pick_is_pure() const override { return true; }
  std::string name() const override { return "FR-FCFS"; }
};

/// FR-FCFS with a per-bank row-hit streak cap: bounds the starvation a
/// streaming core can inflict through an open row.
class FrFcfsCapScheduler final : public Scheduler {
 public:
  explicit FrFcfsCapScheduler(std::uint32_t cap) : cap_(cap) {}

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    // Fused capped-hit/ready/any scan (see FrFcfsScheduler::pick).
    std::size_t ready = kNoPick, any = kNoPick;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i)) continue;
      if (any == kNoPick) any = i;
      const int cls = v.issue_class(i);
      if (cls == 0) continue;
      if (cls == 2 && streak_for(q[i].coord) < cap_) return i;
      if (ready == kNoPick) ready = i;
    }
    return ready != kNoPick ? ready : any;
  }

  void on_service(const QueuedRequest& r, const SchedView& v) override {
    auto& s = streaks_[bank_key(r.coord)];
    if (s.row == r.coord.row && v.row_hit(r)) ++s.count;
    else s = {r.coord.row, 0};
  }

  // Streaks advance on service only; nothing is clocked.
  Cycle next_event(Cycle) const override { return kCycleNever; }

  // streak_for only reads; streaks advance in on_service.
  bool pick_is_pure() const override { return true; }

  std::string name() const override { return "FR-FCFS-Cap" + std::to_string(cap_); }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(streaks_);
  }

 private:
  struct Streak {
    std::uint32_t row = 0;
    std::uint32_t count = 0;

    template <class Ar>
    void fields(Ar& ar) {
      ar(row, count);
    }
  };
  static std::uint64_t bank_key(const dram::Coord& c) {
    // Full-width packing: bank in the low 32 bits, rank above. Injective
    // for any geometry (no silent aliasing on >256-bank configs).
    return (static_cast<std::uint64_t>(c.rank) << 32) | c.bank;
  }
  std::uint32_t streak_for(const dram::Coord& c) {
    auto it = streaks_.find(bank_key(c));
    return (it != streaks_.end() && it->second.row == c.row) ? it->second.count : 0;
  }

  std::uint32_t cap_;
  std::unordered_map<std::uint64_t, Streak> streaks_;
};

/// BLISS (Subramanian et al., ICCD 2014): cores that receive several
/// consecutive services are blacklisted for a while; non-blacklisted
/// requests take priority. Tiny state, most of the fairness of ranking
/// schedulers.
class BlissScheduler final : public Scheduler {
 public:
  BlissScheduler(std::uint32_t num_cores, std::uint32_t streak_limit, Cycle clear_interval)
      : blacklisted_(num_cores, false),
        streak_limit_(streak_limit),
        clear_interval_(clear_interval) {}

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    // Fused form of the original five passes: whitelisted-hit >
    // whitelisted-ready > any-hit > any-ready > oldest-live. Each class is
    // a subset of a later one and, on an arrival-ordered queue, its oldest
    // member is its first, so one scan keeps the first of each class and a
    // whitelisted hit ends it.
    std::size_t wl_ready = kNoPick, hit = kNoPick, ready = kNoPick, any = kNoPick;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i)) continue;
      const QueuedRequest& r = q[i];
      if (any == kNoPick) any = i;
      const int cls = v.issue_class(i);
      if (cls == 0) continue;
      const bool rh = cls == 2;
      if (blacklist_ok(r, /*allow=*/false)) {
        if (rh) return i;
        if (wl_ready == kNoPick) wl_ready = i;
      }
      if (rh && hit == kNoPick) hit = i;
      if (ready == kNoPick) ready = i;
    }
    if (wl_ready != kNoPick) return wl_ready;
    if (hit != kNoPick) return hit;
    return ready != kNoPick ? ready : any;
  }

  void on_service(const QueuedRequest& r, const SchedView&) override {
    if (r.core == last_core_) {
      if (++streak_ >= streak_limit_ && r.core < blacklisted_.size())
        blacklisted_[r.core] = true;
    } else {
      last_core_ = r.core;
      streak_ = 1;
    }
  }

  void tick(const SchedView& v, std::vector<QueuedRequest>&) override {
    if (v.now >= next_clear_) {
      std::fill(blacklisted_.begin(), blacklisted_.end(), false);
      next_clear_ = v.now + clear_interval_;
    }
  }

  // The blacklist clear is the only clocked state. A value <= now means an
  // overdue clear has not run yet (the command slot was taken every cycle
  // since); the controller clamps that to per-cycle until tick() fires.
  Cycle next_event(Cycle) const override { return next_clear_; }

  bool pick_is_pure() const override { return true; }

  std::string name() const override { return "BLISS"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(blacklisted_, last_core_, streak_, next_clear_);
  }

 private:
  bool blacklist_ok(const QueuedRequest& r, bool allow) const {
    if (allow) return true;
    return r.core >= blacklisted_.size() || !blacklisted_[r.core];
  }

  std::vector<bool> blacklisted_;
  std::uint32_t streak_limit_;
  Cycle clear_interval_;
  std::uint32_t last_core_ = static_cast<std::uint32_t>(-1);
  std::uint32_t streak_ = 0;
  Cycle next_clear_ = 0;
};

}  // namespace

std::unique_ptr<Scheduler> make_fcfs() { return std::make_unique<FcfsScheduler>(); }
std::unique_ptr<Scheduler> make_frfcfs() { return std::make_unique<FrFcfsScheduler>(); }
std::unique_ptr<Scheduler> make_frfcfs_cap(std::uint32_t cap) {
  return std::make_unique<FrFcfsCapScheduler>(cap);
}
std::unique_ptr<Scheduler> make_bliss(std::uint32_t num_cores) {
  return std::make_unique<BlissScheduler>(num_cores, 4, 10000);
}

}  // namespace ima::mem
