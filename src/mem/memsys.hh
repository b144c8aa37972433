// Multi-channel memory system facade: owns the data store, the channels,
// their controllers and the address mapper, and routes requests.
//
// Functional data accesses (used by the PIM kernels and examples) go
// straight to the data store; timing requests flow through the controllers.
// This timing/functional split is the standard trace-driven-simulator
// arrangement (cf. Ramulator).
// Sharded execution (DESIGN.md "Sharded execution"): set_shards() switches
// drain() onto an epoch-barrier engine that partitions the channels into
// contiguous per-shard groups, advances each group independently on a
// harness::WorkerPool between barriers, and defers completion callbacks to
// per-channel mailboxes delivered in canonical (completion cycle, channel,
// arrival) order at each barrier. Results are byte-identical at any shard
// width — IMA_SHARDS=1 and IMA_SHARDS=8 produce the same cycle counts,
// StatRegistry snapshots and corruption ledgers (tests/shard_test.cc).
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/clock.hh"
#include "dram/addrmap.hh"
#include "dram/channel.hh"
#include "dram/config.hh"
#include "dram/datastore.hh"
#include "mem/controller.hh"

namespace ima::obs {
class Watchdog;
struct ShardProgress;
}  // namespace ima::obs

namespace ima::harness {
class WorkerPool;
}  // namespace ima::harness

namespace ima::mem {

class MemorySystem {
 public:
  MemorySystem(const dram::DramConfig& dram_cfg, const ControllerConfig& ctrl_cfg,
               dram::MapScheme scheme = dram::MapScheme::RoBaRaCoCh);
  ~MemorySystem();  // out-of-line: WorkerPool is forward-declared here

  /// Routes the request to its channel's controller. A false return means
  /// the queue rejected the request: it was NOT admitted and `cb` will
  /// never fire — discarding the result silently loses the request and its
  /// completion accounting (the congested-tail under-count bug), hence
  /// [[nodiscard]]. Gate on can_accept() or retry; service::MemoryService
  /// wraps this in a push/is_full interface that can never silently drop.
  [[nodiscard]] bool enqueue(Request req, CompletionCallback cb = nullptr);

  /// True if the owning controller can accept this request right now
  /// (`core` participates in per-core quota checks when enabled).
  bool can_accept(Addr addr, AccessType type,
                  std::uint32_t core = Controller::kAnyCore) const {
    return ctrls_[mapper_->decode(addr).channel]->can_accept(type, core);
  }

  /// Advances all controllers one cycle.
  void tick(Cycle now);

  /// Earliest future cycle at which any controller has work
  /// (common/clock.hh contract).
  Cycle next_event(Cycle now) const;

  /// Runs until all queues drain or `deadline` passes; returns final cycle.
  /// Skip-ahead by default (cycle-exact vs. the per-cycle reference);
  /// set_clock_mode(ClockMode::PerCycle) restores the legacy loop. With a
  /// shard plan armed (set_shards) this routes to the epoch-barrier engine
  /// instead; the returned cycle is then EPOCH-QUANTIZED (the first barrier
  /// at which the system is idle) but identical at every shard width.
  /// Because of that quantization the return value is a scheduling
  /// coordinate, NOT a latency endpoint: never subtract it from request
  /// timestamps — per-request latency must come from the Request::complete
  /// / arrive / tag stamps delivered to completion callbacks, which are
  /// exact at any width (last_drain_quantized() tells which regime the
  /// previous drain ran in).
  ///
  /// Hitting `deadline` with work still queued is recorded, never silent:
  /// last_drain_clipped() flips true, the drain_deadline_clips counter
  /// (registered under `<prefix>.drain_deadline_clips`) increments, and
  /// with DeadlinePolicy::Throw armed the run aborts through the watchdog
  /// flight recorder instead of quietly reporting a truncated tail.
  Cycle drain(Cycle from, Cycle deadline = 100'000'000);

  bool idle() const;

  // --- sharded execution ---

  /// Arms the epoch-barrier drain engine: `shards` contiguous channel
  /// groups (clamped to the channel count) advanced between barriers every
  /// `epoch` cycles (0 = sim::default_shard_epoch()). shards = 0 disarms
  /// (legacy serial drain). Call before enqueueing: with a plan armed,
  /// completion callbacks are deferred to the barrier mailboxes from
  /// enqueue time on. The host-thread width actually used can be lower
  /// than `shards` — nested inside a sweep job (WorkerPool::on_worker()),
  /// with a trace sink attached, or with one HammerVictimModel shared by
  /// several controllers, the epochs run inline on the caller — but the
  /// simulated results never depend on that (shard_workers_used() tells).
  void set_shards(unsigned shards, Cycle epoch = 0);
  unsigned shards() const { return shards_; }
  Cycle shard_epoch() const;
  /// Host-thread width of the most recent sharded drain (diagnostics: the
  /// oversubscription test asserts 1 inside sweep jobs).
  unsigned shard_workers_used() const { return shard_workers_used_; }

  /// Minimum completion-callback latency (CL + BL): the earliest a
  /// cross-shard effect routed through this memory system can matter, i.e.
  /// the memsys term of sim::conservative_epoch for closed-loop callers.
  Cycle min_callback_latency() const {
    return dram_cfg_.timings.cl + dram_cfg_.timings.bl;
  }

  /// Per-channel open-loop feeder for sharded drains: next(ch, now, out)
  /// produces the channel's next request (addresses must decode to `ch`;
  /// returning false means the channel's stream is exhausted for good) and
  /// is called from the owning shard's thread, so it may only touch
  /// per-channel state. on_complete (optional) is delivered through the
  /// barrier mailboxes in canonical order on the coordinating thread.
  ///
  /// Time-dated feeds: a produced request whose `arrive` lies in the
  /// future is held back and admitted at exactly that cycle (or at the
  /// first later cycle the queue accepts it, under backpressure) — the
  /// open-loop arrival-process hook the serving benches use. `arrive` is
  /// re-stamped with the true admission cycle at enqueue; stamp the
  /// intended arrival into `tag` to measure source-to-data latency.
  /// Requests dated at or before `now` (including the default arrive = 0)
  /// feed as fast as the queue accepts, as before.
  struct ChannelSource {
    std::function<bool(std::uint32_t ch, Cycle now, Request& out)> next;
    std::function<void(std::uint32_t ch, const Request& done)> on_complete;
  };

  /// Epoch-barrier drain with per-channel feeders: runs until every source
  /// is exhausted and every queue drained (or `deadline`). Requires an
  /// armed shard plan (set_shards; shards = 1 is the serial reference —
  /// byte-identical to any wider plan). The returned cycle is
  /// epoch-quantized — see drain() for why it must never be used as a
  /// latency endpoint — and deadline exhaustion is surfaced exactly like
  /// drain()'s (clip counter + optional throw): a low-rate open-loop run
  /// that cannot finish inside `deadline` must never silently report a
  /// truncated latency tail. A clipped sourced drain is not losslessly
  /// resumable, either: each call resets the feed state, so a produced but
  /// not-yet-admitted time-dated request from the clipped run is gone —
  /// treat a clip as fatal for the measurement (or restart the source).
  Cycle drain_sourced(const ChannelSource& src, Cycle from, Cycle deadline = 100'000'000);

  // --- drain-deadline accounting ---

  /// What to do when drain()/drain_sourced() hits its deadline with work
  /// still pending (queued requests, in-flight bursts, or an unexhausted
  /// source): Record (default) just counts the clip; Throw additionally
  /// aborts through the armed watchdog's flight recorder (or a bare
  /// obs::WatchdogError when none is armed).
  enum class DeadlinePolicy : std::uint8_t { Record, Throw };
  void set_deadline_policy(DeadlinePolicy p) { deadline_policy_ = p; }
  DeadlinePolicy deadline_policy() const { return deadline_policy_; }
  /// True iff the most recent drain()/drain_sourced() returned because the
  /// deadline expired, not because the system went idle.
  bool last_drain_clipped() const { return last_drain_clipped_; }
  /// Total deadline clips over this system's lifetime (also registered as
  /// the `<prefix>.drain_deadline_clips` counter).
  std::uint64_t drain_deadline_clips() const { return drain_clips_; }
  /// True iff the most recent drain ran on the epoch-barrier engine, i.e.
  /// its return value was epoch-quantized.
  bool last_drain_quantized() const { return last_drain_quantized_; }

  /// Appends one ShardProgress per shard group (per channel when no plan
  /// is armed): the obs::Watchdog::set_shard_progress payload.
  void shard_progress(std::vector<obs::ShardProgress>& out) const;

  void set_clock_mode(sim::ClockMode mode) { clock_mode_ = mode; }
  sim::ClockMode clock_mode() const { return clock_mode_; }

  // --- functional access (no timing) ---
  void poke(Addr addr, std::span<const std::uint8_t> bytes);
  void peek(Addr addr, std::span<std::uint8_t> bytes) const;
  std::uint64_t peek_u64(Addr addr) const;
  void poke_u64(Addr addr, std::uint64_t value);

  std::uint32_t num_channels() const { return static_cast<std::uint32_t>(ctrls_.size()); }
  Controller& controller(std::uint32_t ch) { return *ctrls_[ch]; }
  const Controller& controller(std::uint32_t ch) const { return *ctrls_[ch]; }
  dram::Channel& channel(std::uint32_t ch) { return *chans_[ch]; }
  const dram::AddressMapper& mapper() const { return *mapper_; }
  dram::DataStore& data() { return *data_; }
  const dram::DramConfig& dram_config() const { return dram_cfg_; }

  /// Aggregate energy across channels including background up to `now`.
  PicoJoule total_energy(Cycle now) const;

  /// Aggregate controller stats (summed over channels).
  Controller::Stats aggregate_stats() const;

  /// Registers every controller (and its channel) under
  /// `prefix + ".ctrl<i>"` / `prefix + ".chan<i>"`. Call once the topology
  /// is final — the registry borrows pointers into the controllers.
  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const;

  /// Attaches `sink` to every controller and channel (null detaches).
  void set_trace(obs::TraceSink* sink);

  /// Monotonic digest of observable work (command state-versions plus
  /// retire counts): a frozen token while the event loop keeps iterating is
  /// the watchdog's wedge signature.
  std::uint64_t progress_token() const;

  /// Arms `wd` on the drain() loop (null disarms). Borrowed pointer; the
  /// watchdog throws obs::WatchdogError out of drain() when it fires.
  void set_watchdog(obs::Watchdog* wd) { watchdog_ = wd; }

  /// Flight-recorder dump: every controller's queues/FSM plus channel bank
  /// state.
  void dump(std::ostream& os, Cycle now) const;

  // --- checkpoint/restore ---

  /// Serializes the whole memory system: DataStore pages, per-channel FSM
  /// and timing state, per-controller accounting and policies. Requires a
  /// quiescent system (idle() with every barrier mailbox delivered) —
  /// completion callbacks are not serializable, so a mid-epoch save under a
  /// shard plan is refused with ErrorKind::State. The shard plan itself is
  /// NOT part of the image: restore at any IMA_SHARDS width reproduces the
  /// uninterrupted run byte-for-byte (the sharded-drain invariant).
  /// Borrowed HammerVictimModels are included — each distinct model exactly
  /// once, in first-controller order — so a path-level checkpoint is
  /// self-contained; the restore target must share models identically.
  template <class Ar>
  void fields(Ar& ar);

 private:
  // --- sharded-drain machinery (all coordinator-side unless noted) ---
  struct Mail {
    Request req;
    CompletionCallback cb;
  };
  struct Feed {
    bool exhausted = false;
    bool has_pending = false;
    Request pending;
  };

  /// Wraps a callback so it lands in channel `ch`'s barrier mailbox
  /// instead of firing on the shard thread. Null stays null.
  CompletionCallback defer_to_mailbox(std::uint32_t ch, CompletionCallback cb);
  /// Delivers all mailboxes in canonical (completion cycle, channel,
  /// arrival) order — exactly the order the legacy serial drain fires
  /// callbacks in — then clears them.
  void deliver_mail();
  /// Advances shard group `g` from `from` to `limit` via its own event
  /// loop (runs on a pool worker; touches only the group's channels).
  void run_shard_span(std::size_t g, Cycle from, Cycle limit, const ChannelSource* src);
  /// Feeds channel `c` from `src` until its queue rejects or the stream
  /// exhausts (shard-thread side).
  void feed_channel(const ChannelSource& src, std::uint32_t c, Cycle now);
  /// Host-thread width for this drain: the armed shard count, collapsed to
  /// 1 when nested in a pool region, tracing, or sharing a victim model.
  unsigned decide_shard_workers() const;
  Cycle drain_epochs(Cycle from, Cycle deadline, const ChannelSource* src);

  dram::DramConfig dram_cfg_;
  std::unique_ptr<dram::DataStore> data_;
  std::unique_ptr<dram::AddressMapper> mapper_;
  std::vector<std::unique_ptr<dram::Channel>> chans_;
  std::vector<std::unique_ptr<Controller>> ctrls_;
  obs::Watchdog* watchdog_ = nullptr;
  sim::ClockMode clock_mode_ = sim::default_clock_mode();

  /// Records the outcome of a finished drain (clipped = deadline expired
  /// with work pending); enforces DeadlinePolicy::Throw via the watchdog.
  void note_drain_end(bool clipped, bool quantized, Cycle now);

  DeadlinePolicy deadline_policy_ = DeadlinePolicy::Record;
  bool last_drain_clipped_ = false;
  bool last_drain_quantized_ = false;
  std::uint64_t drain_clips_ = 0;

  unsigned shards_ = 0;  // 0 = legacy serial drain
  Cycle shard_epoch_ = 0;
  unsigned shard_workers_used_ = 0;
  bool trace_attached_ = false;
  std::unique_ptr<harness::WorkerPool> pool_;          // lazily built, reused
  std::vector<std::pair<std::uint32_t, std::uint32_t>> groups_;  // [begin,end) per shard
  std::vector<std::vector<Mail>> mail_;                // per channel, shard-written
  std::vector<Feed> feeds_;                            // per channel, shard-written
  std::vector<std::pair<std::uint32_t, std::uint32_t>> mail_order_;  // scratch
  // Liveness token for the registry's registration-epoch check (see
  // obs/stat_registry.hh): reads after this MemorySystem dies throw.
  std::shared_ptr<const void> stats_alive_ = std::make_shared<int>(0);
};

}  // namespace ima::mem
