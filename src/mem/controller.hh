// The memory controller: one per channel.
//
// Responsibilities each cycle (one command-bus slot per cycle):
//   1. retire completed reads (callbacks),
//   2. give the refresh policy its chance (REF has priority),
//   3. issue pending RowHammer victim refreshes,
//   4. execute queued PIM operations (in order — PUM programs are
//      sequences of dependent row-level commands),
//   5. otherwise let the scheduling policy advance one read/write request
//      (ACT/PRE preparation or the RD/WR itself).
//
// The controller also keeps per-core service accounting (for ATLAS/TCM/RL)
// and the row-buffer locality statistics every experiment reports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/ring_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/tail.hh"
#include "dram/addrmap.hh"
#include "dram/channel.hh"
#include "mem/refresh.hh"
#include "mem/request.hh"
#include "mem/rowhammer.hh"
#include "mem/sched.hh"
#include "reliability/engine.hh"

namespace ima::mem {

struct ControllerConfig {
  SchedKind sched = SchedKind::FrFcfs;
  std::uint32_t num_cores = 4;
  std::size_t read_queue_size = 64;
  std::size_t write_queue_size = 64;
  std::size_t write_drain_high = 48;  // enter drain mode
  std::size_t write_drain_low = 16;   // leave drain mode
  std::uint64_t seed = 1;

  // Rank power management (MemScale line [127,132]): after `timeout` idle
  // cycles a rank drops to power-down; after the longer self-refresh
  // timeout it drops to self-refresh (0 = feature disabled).
  Cycle powerdown_timeout = 0;
  Cycle selfrefresh_timeout = 0;

  // Per-core read-queue quota (0 = disabled): models per-core MSHR limits
  // so one bandwidth-heavy core cannot crowd every queue slot (required for
  // meaningful QoS/sampling, cf. MISE).
  std::uint32_t per_core_read_quota = 0;

  // ChargeCache (Hassan et al., HPCA 2016 [26]): remember recently closed
  // rows; re-activating one within the retention window uses the reduced
  // charged-row timings.
  bool charge_cache = false;
  std::size_t charge_cache_entries = 128;
  Cycle charge_retention = 1'200'000;  // ~1ms

  // Request lifecycle spans: attribute each read's end-to-end latency into
  // queueing / timing-stall / refresh-blocked / transfer stages, recorded
  // into per-stage TailRecorders (p50..p999). Off by default: when off the
  // controller allocates no recorders, registers no extra stat paths and
  // existing BENCH artifacts stay byte-identical.
  bool record_spans = false;

  // End-to-end reliability subsystem (fault injection, ECC, patrol scrub,
  // row retirement). Off by default: a disabled config leaves the
  // controller with no engine at all, so every existing experiment
  // executes byte-identically.
  reliability::Config reliability;
};

/// One queued PIM operation (RowClone / Ambit / LISA row-level command).
struct PimOp {
  dram::Cmd cmd = dram::Cmd::AapFpm;
  dram::Coord bank;
  dram::PimArgs args;
  std::function<void(Cycle)> on_done;  // invoked at issue time
};

class Controller {
 public:
  Controller(dram::Channel& chan, const dram::AddressMapper& mapper,
             const ControllerConfig& cfg);

  /// Swap in a custom scheduler (e.g. a tuned RL instance). Must be called
  /// before the first tick.
  void set_scheduler(std::unique_ptr<Scheduler> sched);
  void set_refresh_policy(std::unique_ptr<RefreshPolicy> refresh);
  void set_rowhammer(std::unique_ptr<RowHammerMitigation> mitigation);
  void set_victim_model(HammerVictimModel* model);
  /// Borrowed victim model (null if none). MemorySystem's sharded drain
  /// inspects this: a model shared across controllers forces the epochs
  /// onto one host thread (cross-shard on_act calls would race).
  const HammerVictimModel* victim_model() const { return victim_model_; }
  HammerVictimModel* victim_model() { return victim_model_; }

  /// Reliability engine; null when ControllerConfig::reliability.enabled
  /// is false (the default).
  reliability::Engine* reliability_engine() { return engine_.get(); }
  const reliability::Engine* reliability_engine() const { return engine_.get(); }

  /// True if a request of this type (from `core`, if quotas are enabled)
  /// can be accepted right now.
  bool can_accept(AccessType type, std::uint32_t core = kAnyCore) const {
    if (type == AccessType::Write) return write_q_live_ < cfg_.write_queue_size;
    if (read_q_live_ >= cfg_.read_queue_size) return false;
    if (cfg_.per_core_read_quota > 0 && core != kAnyCore && core < read_q_count_.size())
      return read_q_count_[core] < cfg_.per_core_read_quota;
    return true;
  }

  static constexpr std::uint32_t kAnyCore = ~0u;

  /// Enqueue a memory request; returns false if the queue is full (caller
  /// must retry — gate on can_accept(), which this agrees with exactly).
  /// On a false return `cb` will never fire: discarding the result loses
  /// the request and its completion accounting silently, hence
  /// [[nodiscard]].
  [[nodiscard]] bool enqueue(Request req, CompletionCallback cb = nullptr);

  /// Enqueue a PIM operation (executes after all earlier PIM ops).
  void enqueue_pim(PimOp op);

  /// Advance one controller cycle.
  void tick(Cycle now);

  /// Earliest future cycle at which ticking this controller could change
  /// state (common/clock.hh contract). With queued work this is a true
  /// conservative lower bound — min over per-request command legality,
  /// victim/PIM head legality, retirements, refresh and time-triggered
  /// scheduler state — rather than a blanket now + 1 (see DESIGN.md
  /// "Issue-loop fast path" for the per-term argument).
  Cycle next_event(Cycle now) const;

  bool idle() const {
    // victim_q_ matters: pending RowHammer neighbour refreshes are real
    // work and must not be skipped past just because the request queues
    // drained.
    return read_q_live_ == 0 && write_q_live_ == 0 && pim_q_.empty() &&
           victim_q_.empty() && inflight_.empty();
  }
  std::size_t read_queue_depth() const { return read_q_live_; }
  std::size_t write_queue_depth() const { return write_q_live_; }
  std::size_t pim_queue_depth() const { return pim_q_.size(); }

  struct Stats {
    std::uint64_t reads_done = 0;
    std::uint64_t writes_done = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;     // bank was closed
    std::uint64_t row_conflicts = 0;  // wrong row open
    std::uint64_t pim_ops_done = 0;
    std::uint64_t victim_refreshes = 0;  // RowHammer mitigation overhead
    std::uint64_t enqueue_rejects = 0;
    std::uint64_t charge_cache_hits = 0;
    std::uint64_t charge_cache_misses = 0;
    std::uint64_t powerdowns = 0;
    std::uint64_t selfrefreshes = 0;
    std::uint64_t rank_wakes = 0;
    // arrive -> data. TailRecorder embeds the RunningStat this used to be
    // (identical count/mean/min/max/stddev values) and adds p50..p999.
    obs::TailRecorder read_latency;

    template <class Ar>
    void fields(Ar& ar) {
      ar(reads_done, writes_done, row_hits, row_misses, row_conflicts, pim_ops_done,
         victim_refreshes, enqueue_rejects, charge_cache_hits, charge_cache_misses, powerdowns,
         selfrefreshes, rank_wakes, read_latency);
    }
  };
  const Stats& stats() const { return stats_; }

  /// Per-stage read-latency recorders; the four stages sum exactly to the
  /// end-to-end read latency (queue + stall + refresh + xfer == e2e for
  /// every retired read, hence for the sums).
  struct SpanRecorders {
    obs::TailRecorder queue;    // arrive -> first command, minus refresh block
    obs::TailRecorder stall;    // first command -> RD/WR, minus refresh block
    obs::TailRecorder refresh;  // cycles a due-REF blocked rank held the request
    obs::TailRecorder xfer;     // RD/WR -> data return (CL + burst + ECC)

    template <class Ar>
    void fields(Ar& ar) {
      ar(queue, stall, refresh, xfer);
    }
  };
  /// Null unless ControllerConfig::record_spans.
  const SpanRecorders* spans() const { return spans_.get(); }

  /// Flight-recorder dump: queue contents with lifecycle stamps, inflight
  /// and FSM summary — what the watchdog writes when the loop wedges.
  void dump(std::ostream& os, Cycle now) const;
  const std::vector<CoreState>& cores() const { return cores_; }
  Scheduler& scheduler() { return *sched_; }

  /// Registers the controller's own counters plus its scheduler's, refresh
  /// policy's and RowHammer machinery's stats under `prefix`. Call after the
  /// topology is final (policies installed) — the registry borrows pointers.
  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const;

  /// Wires `sink` through the controller, its channel and its scheduler
  /// (null detaches). Survives later set_scheduler() calls.
  void set_trace(obs::TraceSink* sink);
  dram::Channel& channel() { return chan_; }
  const dram::Channel& channel() const { return chan_; }

  /// Checkpoint the controller at a quiescent point. Requires idle():
  /// completion callbacks are not serializable, so queued or inflight
  /// requests make the controller uncheckpointable (ErrorKind::State).
  /// Serializes per-core accounting, stats, charge cache, power/refresh
  /// pacing and the installed policies (scheduler / refresh / RowHammer /
  /// reliability engine). The borrowed victim model is serialized exactly
  /// once by its owner, not here. Restore targets must be constructed by
  /// the same factory path; policy names are fingerprinted.
  template <class Ar>
  void fields(Ar& ar);

  /// Total energy including background standby up to `now` (plus ECC
  /// encode/decode energy when the reliability engine is enabled).
  PicoJoule total_energy(Cycle now) const {
    return chan_.stats().cmd_energy + chan_.background_energy(now) +
           (engine_ ? engine_->ecc_energy() : PicoJoule{0});
  }

 private:
  void retire(Cycle now);
  void manage_power(Cycle now);
  bool try_issue_victim_refresh(Cycle now);
  bool try_issue_pim(Cycle now);
  bool try_issue_request(Cycle now);
  bool try_issue_from(std::vector<QueuedRequest>& q, std::size_t live, Cycle now);
  /// Called from the ref_hook when a blanket REF finally issues on `rank`:
  /// charges the [blocked_since, now) window to every live queued request
  /// of that rank (span telemetry; no-op unless record_spans).
  void attribute_refresh_block(std::uint32_t rank, Cycle now);
  void serve(std::vector<QueuedRequest>& q, std::size_t idx, dram::Cmd cmd, Cycle now);
  void classify_first_touch(QueuedRequest& qr);
  std::uint64_t charge_key(const dram::Coord& c, std::uint32_t row) const;

  /// Builds the per-decision scheduler view over the read or write queue,
  /// entering the timing cache's epoch for `now`.
  SchedView view(Cycle now, bool is_read) const {
    timing_cache_.begin(now);
    return SchedView{now, &cores_, &timing_cache_, (is_read ? read_meta_ : write_meta_).data(),
                     is_read ? read_q_sorted_ : write_q_sorted_};
  }

  dram::Channel& chan_;
  const dram::AddressMapper& mapper_;
  ControllerConfig cfg_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<RefreshPolicy> refresh_;
  std::unique_ptr<RowHammerMitigation> mitigation_;
  HammerVictimModel* victim_model_ = nullptr;
  std::unique_ptr<reliability::Engine> engine_;
  std::uint32_t refs_for_mitigation_ = 0;
  std::vector<Cycle> rank_last_activity_;

  std::vector<QueuedRequest> read_q_;
  std::vector<QueuedRequest> write_q_;
  // Live (unserved) entries per queue. Served requests tombstone in place
  // (stable index order preserves the schedulers' lowest-index tie-breaks)
  // and compact in batches, so q.size() overstates occupancy between
  // compactions.
  std::size_t read_q_live_ = 0;
  std::size_t write_q_live_ = 0;
  // Per-queue arrive monotonicity (SchedView::arrive_sorted): requests are
  // stamped with the enqueue cycle, so queues are sorted in practice and
  // first-ready schedulers can stop at the first match.
  bool read_q_sorted_ = true;
  bool write_q_sorted_ = true;
  Cycle read_q_last_arrive_ = 0;
  Cycle write_q_last_arrive_ = 0;
  std::vector<std::uint32_t> read_q_count_;  // per-core read-queue occupancy
  // Compact per-queue scan metadata (QueueScanMeta, sched.hh), index-
  // parallel to read_q_/write_q_ including tombstones: feeds next_event's
  // classify pass and the schedulers' pick scans without touching the fat
  // queue structs. flags go dead in serve() and both arrays compact
  // together. In-repo schedulers only flip `marked` on queue entries; a
  // custom tick() that reordered or erased entries would desync these
  // (none does — the queue is compacted only in serve()).
  std::vector<QueueScanMeta> read_meta_;
  std::vector<QueueScanMeta> write_meta_;
  // Per-queue per-unit occupancy aggregates: how many live requests sit at
  // each unit (`total`) and how many of them target the unit's currently
  // open row (`match`). With them the next_event kernel folds over
  // *occupied units* — O(banks touched) — instead of classifying every
  // queue entry: a closed unit contributes its ACT earliest once, an open
  // one its RD/WR earliest when match > 0 and its PRE earliest when some
  // queued row mismatches. Exactly the classify pass's classes, derived
  // incrementally: enqueue/serve adjust the counts in O(1), the one
  // mutation that redefines `match` (an ACT changing the open row) rescans
  // the queues for that single unit, and PIM/scrub commands — whose row-
  // state effects are not worth tracking — set occ_dirty_ to force a full
  // rebuild at the next kernel run. PRE needs no bookkeeping: a closed
  // unit's match is simply unused until the next ACT recomputes it.
  struct UnitCnt {
    std::uint32_t total = 0;
    std::uint32_t match = 0;
  };
  struct UnitOcc {
    std::vector<UnitCnt> cnt;           // both counts in one 8-byte slot
    std::vector<std::uint8_t> listed;   // unit present in `units`
    std::vector<std::uint32_t> units;   // occupied units, kept sorted
  };
  mutable UnitOcc occ_[2];  // 0 = read queue, 1 = write queue
  mutable bool occ_dirty_ = false;
  void refresh_unit_occ(std::uint32_t unit);
  void rebuild_occ() const;
  Cycle queue_kernel_min(std::size_t qi, Cycle now) const;
  // Refresh (if needed) and return the queue's stashed kernel min; shared
  // by next_event and the pick-elision gate in try_issue_from.
  Cycle stashed_issue_min(std::size_t qi, Cycle now) const;
  // Steady-state FIFOs use RingQueue (common/ring_queue.hh): depth is
  // bounded in practice, so the storage is touched once and recycled —
  // no deque block churn on the enqueue/issue path.
  RingQueue<PimOp> pim_q_;
  RingQueue<dram::Coord> victim_q_;  // pending RowHammer neighbour refreshes
  // Queued work per rank across all four queues, maintained on
  // enqueue/dequeue — replaces manage_power's per-tick occupancy vector and
  // feeds next_event's power-threshold terms.
  std::vector<std::uint32_t> rank_work_;
  mutable SchedTimingCache timing_cache_{chan_};
  std::vector<dram::Coord> victims_buf_;  // reused act-hook scratch
  // Issue lower-bound stash: the queue kernel's min over both request
  // queues, computed by next_event and reused while nothing that feeds it
  // moved. Channel timing is keyed by state_version() (every channel
  // mutation bumps it); queue membership changes clear the valid flag
  // directly on enqueue (serves bump state_version via issue). Every
  // earliest() term is nondecreasing in `now`, so a stash computed at an
  // earlier cycle under the same version stays a sound lower bound: while
  // issue_min_ > now, no queued request's command is legal, and
  //   - next_event reuses it instead of re-running the kernel,
  //   - try_issue_from skips the scheduler's pick scan outright (pure-pick
  //     policies only — see Scheduler::pick_is_pure).
  // Index 0 = read queue, 1 = write queue: per-queue stashes let a
  // ready write skip only the write pick while the idle read queue keeps
  // its (still valid) stash, and an enqueue invalidates only the queue it
  // joined.
  mutable Cycle issue_min_[2] = {0, 0};
  mutable std::uint64_t issue_min_version_[2] = {0, 0};
  mutable bool issue_min_valid_[2] = {false, false};
  bool sched_pick_pure_ = false;  // cached sched_->pick_is_pure()
  bool draining_writes_ = false;

  struct Inflight {
    Cycle done;
    Request req;
    CompletionCallback cb;
    bool operator>(const Inflight& o) const { return done > o.done; }
  };
  std::priority_queue<Inflight, std::vector<Inflight>, std::greater<>> inflight_;

  std::vector<CoreState> cores_;
  std::uint64_t next_req_id_ = 1;
  Stats stats_;
  std::unique_ptr<SpanRecorders> spans_;  // non-null iff cfg_.record_spans
  obs::TraceSink* trace_ = nullptr;

  // ChargeCache state: (rank,bank,row) -> charge expiry, FIFO-bounded with
  // stamped lazy eviction (re-inserted keys leave stale FIFO entries that
  // must not evict the live map entry).
  struct ChargeEntry {
    Cycle expiry = 0;
    std::uint64_t stamp = 0;

    template <class Ar>
    void fields(Ar& ar) {
      ar(expiry, stamp);
    }
  };
  void charge_cache_insert(const dram::Coord& c, std::uint32_t row, Cycle now);
  bool charge_cache_hit(const dram::Coord& c, Cycle now);
  std::unordered_map<std::uint64_t, ChargeEntry> charge_map_;
  RingQueue<std::pair<std::uint64_t, std::uint64_t>> charge_fifo_;  // (key, stamp)
  std::uint64_t charge_stamp_ = 0;
};

}  // namespace ima::mem
