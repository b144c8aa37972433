// Memory-request scheduling policies.
//
// The paper's data-driven principle is anchored on the observation that a
// memory controller executes one fixed human-designed heuristic for the
// machine's whole lifetime. This module provides that heuristic zoo —
// FCFS, FR-FCFS (+cap), PAR-BS, ATLAS, TCM, BLISS — and a reinforcement-
// learning scheduler (sched_rl.cc) that learns its policy online, in the
// spirit of Ipek et al., ISCA 2008 [39].
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/channel.hh"
#include "mem/request.hh"

namespace ima::obs {
class StatRegistry;
class TraceSink;
}  // namespace ima::obs

namespace ima::ckpt {
class Sink;
class Source;
}  // namespace ima::ckpt

namespace ima::mem {

/// A request waiting in the controller queue, plus its decoded coordinates
/// and scheduling metadata.
struct QueuedRequest {
  Request req;
  dram::Coord coord;
  bool live = true;         // false = served tombstone awaiting compaction
  bool marked = false;      // PAR-BS batch membership
  bool classified = false;  // row hit/miss/conflict recorded at first command
  CompletionCallback cb;    // fires when the data burst completes
};

/// Compact scan metadata the controller maintains index-parallel to each
/// request queue (tombstones included): exactly the values a legality /
/// row-hit query needs, 12 bytes per entry instead of a whole
/// QueuedRequest, so the hot scheduler and next_event scans touch a tenth
/// of the cache lines. `unit` is immutable per request (Channel::unit_of
/// depends only on the geometry); `flags` go dead when the request is
/// served.
struct QueueScanMeta {
  std::uint32_t unit;
  std::uint32_t row;
  std::uint32_t flags;  // kLive | kWrite
  static constexpr std::uint32_t kLive = 1;
  static constexpr std::uint32_t kWrite = 2;
};

/// Per-core accounting the fairness-oriented schedulers need.
struct CoreState {
  std::uint64_t attained_service = 0;  // bus cycles of service (ATLAS LAS)
  std::uint64_t served = 0;            // requests completed
  std::uint64_t served_in_quantum = 0; // TCM cluster formation input
  std::uint64_t outstanding = 0;       // currently queued requests
  std::uint32_t consecutive_served = 0;  // BLISS streak
  bool blacklisted = false;            // BLISS
  std::uint8_t cluster = 0;            // TCM: 0 = latency-sensitive, 1 = bandwidth
  std::uint32_t shuffle_rank = 0;      // TCM bandwidth-cluster shuffle order

  template <class Ar>
  void fields(Ar& ar) {
    ar(attained_service, served, served_in_quantum, outstanding, consecutive_served, blacklisted,
       cluster, shuffle_rank);
  }
};

/// Per-rank memoization of the timing queries a scheduling decision makes.
/// Within one decision epoch — a fixed cycle with no intervening command
/// issue — everything a legality query needs splits into (a) per-unit
/// values that are direct loads from the channel's SoA timing arrays
/// (open flag, open row, per-class next-legal cycles) and (b) rank-level
/// gates (tRRD/tFAW ACT gate, bus turnaround, power state) shared by every
/// unit of the rank. Only (b) is worth memoizing: this cache folds
/// scan_gates() once per rank per epoch and answers every query as two or
/// three dense loads plus a max() against the cached gates — exactly the
/// values Channel::earliest() computes, by shared construction
/// (earliest_*_at IS earliest()'s arithmetic, and QueueScanMeta::unit is
/// Channel::unit_of, which resolves the subarray under SALP). Validity is
/// keyed on (cycle, Channel::state_version()): `begin()` bumps the epoch
/// whenever either moved, so the cache can never serve a value the
/// channel would not return itself this cycle.
class SchedTimingCache {
 public:
  explicit SchedTimingCache(const dram::Channel& chan)
      : chan_(&chan),
        gates_(chan.config().geometry.ranks),
        gate_epoch_(chan.config().geometry.ranks, 0) {}

  /// Enter the decision epoch for `now`. Cheap when nothing changed since
  /// the last call; otherwise invalidates every rank's gates (lazily).
  void begin(Cycle now) {
    const std::uint64_t v = chan_->state_version();
    if (now != now_ || v != version_) {
      now_ = now;
      version_ = v;
      ++epoch_;
    }
  }

  bool row_hit(const dram::Coord& c) const {
    const std::size_t u = chan_->unit_of(c);
    return chan_->unit_open(u) && chan_->unit_row(u) == c.row;
  }
  bool row_hit(const QueueScanMeta& m) const {
    return chan_->unit_open(m.unit) && chan_->unit_row(m.unit) == m.row;
  }
  /// The command this entry needs next (Channel::required_cmd off the meta).
  dram::Cmd required_cmd(const QueueScanMeta& m) const {
    if (!chan_->unit_open(m.unit)) return dram::Cmd::Act;
    if (chan_->unit_row(m.unit) != m.row) return dram::Cmd::Pre;
    return (m.flags & QueueScanMeta::kWrite) ? dram::Cmd::Wr : dram::Cmd::Rd;
  }
  /// Fused legality + row-hit classification of one entry: 0 = the
  /// required command is not legal at now_ (including a sleeping rank),
  /// 1 = legal, 2 = legal and a row hit. Force-inlined: this runs per queue
  /// entry inside every scheduler's pick scan, and the call frame
  /// otherwise costs as much as the classification.
  [[gnu::always_inline]] inline int issue_class(const QueueScanMeta& m) const {
    const std::size_t u = m.unit;
    const dram::Channel::ScanGates& g = gates(chan_->unit_rank(u));
    if (!g.active) return 0;
    if (!chan_->unit_open(u)) return chan_->earliest_act_at(u, g) <= now_ ? 1 : 0;
    if (chan_->unit_row(u) == m.row) {
      const Cycle e = (m.flags & QueueScanMeta::kWrite) ? chan_->earliest_wr_at(u, g)
                                                        : chan_->earliest_rd_at(u, g);
      return e <= now_ ? 2 : 0;
    }
    return chan_->earliest_pre_at(u, g) <= now_ ? 1 : 0;
  }
  /// The channel this cache reads (SchedView's geometry queries use it).
  const dram::Channel& channel() const { return *chan_; }

 private:
  const dram::Channel::ScanGates& gates(std::uint32_t rank) const {
    if (gate_epoch_[rank] != epoch_) {
      gate_epoch_[rank] = epoch_;
      gates_[rank] = chan_->scan_gates(rank, now_);
    }
    return gates_[rank];
  }

  const dram::Channel* chan_;
  Cycle now_ = kCycleNever;
  std::uint64_t version_ = ~std::uint64_t{0};
  std::uint64_t epoch_ = 1;  // gate slots start at 0 => initially stale
  mutable std::vector<dram::Channel::ScanGates> gates_;
  mutable std::vector<std::uint64_t> gate_epoch_;
};

/// The scan-meta entry of one queued request (tombstones carry no flags).
/// The controller appends one per enqueue; hand-built queues use the same
/// builder.
inline QueueScanMeta scan_meta(const dram::Channel& chan, const QueuedRequest& r) {
  const std::uint32_t flags =
      r.live ? QueueScanMeta::kLive |
                   (r.req.type == AccessType::Read ? 0u : QueueScanMeta::kWrite)
             : 0u;
  return QueueScanMeta{static_cast<std::uint32_t>(chan.unit_of(r.coord)), r.coord.row, flags};
}

/// Read-only view of controller state offered to a scheduler each decision.
/// Every query answers off the active queue's QueueScanMeta through the
/// controller's SchedTimingCache, whose epoch has begun at `now`.
struct SchedView {
  Cycle now = 0;
  const std::vector<CoreState>* cores = nullptr;
  const SchedTimingCache* cache = nullptr;
  // Index-parallel scan metadata for the active queue, tombstones included.
  const QueueScanMeta* meta = nullptr;
  // True when the active queue's live entries have non-decreasing
  // req.arrive (the controller tracks this per queue on enqueue; requests
  // are stamped with the enqueue cycle, so it holds in practice). Then
  // "oldest in class" = "first in class", and first-ready schedulers may
  // return at the first match instead of completing an argmin scan.
  bool arrive_sorted = false;

  [[gnu::always_inline]] inline bool live(std::size_t i) const {
    return (meta[i].flags & QueueScanMeta::kLive) != 0;
  }
  /// 0 = entry i's next command cannot issue this cycle, 1 = it can,
  /// 2 = it can and is a row hit (see SchedTimingCache::issue_class).
  [[gnu::always_inline]] inline int issue_class(std::size_t i) const {
    return cache->issue_class(meta[i]);
  }
  bool issuable(std::size_t i) const { return issue_class(i) != 0; }
  bool row_hit(std::size_t i) const { return cache->row_hit(meta[i]); }
  /// The command entry i needs next (Act / Pre / Rd / Wr).
  dram::Cmd required_cmd(std::size_t i) const { return cache->required_cmd(meta[i]); }
  /// Flat (rank, bank) id of entry i, in [0, bank_count()): its unit with
  /// the SALP subarray bits dropped.
  std::uint32_t bank(std::size_t i) const { return cache->channel().bank_of_unit(meta[i].unit); }
  std::size_t bank_count() const {
    const auto& g = cache->channel().config().geometry;
    return static_cast<std::size_t>(g.ranks) * g.banks;
  }
  /// Row hit of a request outside the active queue's index space (the
  /// request just served, in on_service).
  bool row_hit(const QueuedRequest& q) const { return cache->row_hit(q.coord); }
};

inline constexpr std::size_t kNoPick = static_cast<std::size_t>(-1);

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Chooses the index of the request to advance, or kNoPick to idle.
  /// `q` is the active queue (reads or writes, chosen by the controller).
  virtual std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& view) = 0;

  /// Called when a request's data burst is issued (service granted).
  virtual void on_service(const QueuedRequest&, const SchedView&) {}

  /// Periodic housekeeping (quantum boundaries etc.); called every cycle.
  virtual void tick(const SchedView&, std::vector<QueuedRequest>&) {}

  /// Earliest cycle at which this policy's *time-triggered* state needs a
  /// tick (quantum/shuffle boundaries, blacklist clears, sampling windows,
  /// per-decision learning). One term of the controller's busy-queue
  /// skip-ahead lower bound; values <= now mean "tick me next cycle" (the
  /// controller clamps), kCycleNever means the policy has no time-triggered
  /// state — its decisions depend only on queue/bank/service state, which
  /// cannot change across a gap where no command can issue. The default
  /// keeps unported schedulers on the always-safe per-cycle cadence.
  virtual Cycle next_event(Cycle now) const { return now + 1; }

  /// True when pick() is a pure function of its arguments and the policy's
  /// current state — no internal mutation, no RNG draw. The controller may
  /// then elide pick() calls it can prove cannot lead to an issue (no
  /// queued request's command is legal this cycle): for a pure pick the
  /// elided call is observably identical, because a pick that is not
  /// issuable is rejected by the controller before any state changes.
  /// Impure policies (the RL scheduler learns and advances its RNG inside
  /// pick) must keep the default so their decision stream is untouched.
  /// Defaults to false: unknown external policies keep exact call cadence.
  virtual bool pick_is_pure() const { return false; }

  /// Exposes policy-internal statistics (decision counts, learning state)
  /// under `prefix`. Default: none.
  virtual void register_stats(obs::StatRegistry&, const std::string& /*prefix*/) const {}

  /// Routes per-decision trace events into `sink` (null detaches). Default:
  /// no tracing; the controller still traces command issue.
  virtual void set_trace(obs::TraceSink*) {}

  /// Checkpoint the policy's mutable state (learned tables, streak/quantum
  /// counters, RNG streams). The restore target is constructed by the same
  /// factory with the same arguments, so configuration is not serialized —
  /// the controller writes and verifies name() around these calls to catch
  /// kind mismatches. Stateless policies keep the empty defaults; the
  /// others forward both to their one fields() (common/ckpt.hh).
  virtual void save_state(ckpt::Sink&) const {}
  virtual void load_state(ckpt::Source&) {}

  virtual std::string name() const = 0;
};

enum class SchedKind : std::uint8_t {
  Fcfs,
  FrFcfs,
  FrFcfsCap,
  ParBs,
  Atlas,
  Tcm,
  Bliss,
  Rl,
};

const char* to_string(SchedKind k);

/// Factory. `num_cores` sizes per-core bookkeeping; `seed` feeds stochastic
/// policies (TCM shuffle, RL exploration).
std::unique_ptr<Scheduler> make_scheduler(SchedKind kind, std::uint32_t num_cores,
                                          std::uint64_t seed = 1);

/// RL scheduler with explicit hyperparameters (for the learning-rate and
/// feature ablations in bench_c5).
std::unique_ptr<Scheduler> make_rl(std::uint32_t num_cores, std::uint64_t seed,
                                   double alpha, double epsilon);

/// MISE slowdown-estimating scheduler (Subramanian et al., HPCA 2013
/// [117]): FR-FCFS plus a rotating highest-priority sampler that measures
/// each app's alone service rate online.
std::unique_ptr<Scheduler> make_mise(std::uint32_t num_cores, Cycle epoch = 50'000);

/// Reads the estimates off a scheduler created by make_mise.
std::vector<double> mise_estimated_slowdowns(const Scheduler& sched);

}  // namespace ima::mem
