// Multi-channel memory system facade: owns the data store, the channels,
// their controllers and the address mapper, and routes requests.
//
// Functional data accesses (used by the PIM kernels and examples) go
// straight to the data store; timing requests flow through the controllers.
// This timing/functional split is the standard trace-driven-simulator
// arrangement (cf. Ramulator).
//
// One drain engine (DESIGN.md "Sharded execution") serves drain() and
// drain_sourced(): every channel is ticked on its own event calendar, and
// the drain returns the exact finish, the last cycle at which a channel
// ticked with work plus one. Without a shard plan the channels run as one
// inline block and completion callbacks fire as requests retire.
// set_shards() makes each channel a block that the workers of a
// harness::WorkerPool claim and advance independently between epoch
// barriers, with completion callbacks deferred to per-channel mailboxes
// merged in canonical (completion cycle, channel, arrival) order at each
// barrier. Open-loop results — end cycle, energy, StatRegistry snapshots,
// corruption ledgers and checkpoint images — are byte-identical with no
// plan and at any shard width, epoch and clock mode (tests/shard_test.cc,
// tests/soa_kernel_test.cc).
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

  /// Advances all controllers one cycle. Under SkipAhead a controller
  /// whose cached wake (below) lies after `now` and whose mutation stamp
  /// has not moved since is not ticked: a tick before its own next_event
  /// is a no-op (common/clock.hh).
  void tick(Cycle now);

  /// Earliest future cycle at which any controller has work
  /// (common/clock.hh contract). Recomputes only the controllers whose
  /// mutation stamp moved since their wake was cached.
  Cycle next_event(Cycle now) const;

  /// Runs until all queues drain or `deadline` passes. Returns the exact
  /// finish — the last cycle at which any channel ticked with work, plus
  /// one; `from` when already idle; `deadline` when clipped. A channel is
  /// ticked only at its own events, and ticking it at any other cycle
  /// would change nothing, so a caller may continue from the returned
  /// cycle, charge energy up to it or checkpoint there. Skip-ahead by
  /// default (cycle-exact vs. the per-cycle reference;
  /// set_clock_mode(ClockMode::PerCycle) ticks every channel every
  /// cycle). When no callback enqueues more work, the
  /// return is the same with no shard plan and at any shard width and
  /// epoch. With a plan, callbacks run at the barriers, so a closed loop
  /// that enqueues from them depends on the epoch (see
  /// sim::conservative_epoch), though never on the width.
  ///
  /// Hitting `deadline` with work still queued is recorded, never silent:
  /// last_drain_clipped() flips true, the drain_deadline_clips counter
  /// (registered under `<prefix>.drain_deadline_clips`) increments, and
  /// with DeadlinePolicy::Throw armed the run aborts through the watchdog
  /// flight recorder instead of quietly reporting a truncated tail.
  Cycle drain(Cycle from, Cycle deadline = 100'000'000);

  bool idle() const;
  /// idle() with every barrier mailbox delivered: nothing left to complete.
  bool quiescent() const;

  // --- sharded execution ---

  /// Arms a shard plan: `shards` host workers (clamped to the channel
  /// count) that claim the channels one at a time and advance them
  /// independently between barriers every `epoch` cycles (0 =
  /// sim::default_shard_epoch()). shards = 0 disarms: the channels drain
  /// as one inline block with inline callbacks. Throws std::logic_error
  /// unless the system is quiescent (idle() with every barrier mailbox
  /// delivered): enqueue() binds each callback to the plan armed at that
  /// moment — deferred to the mailboxes under a plan, inline without — so
  /// a request queued across a switch would complete on the wrong thread
  /// or never. The host-thread width actually used
  /// can be lower than `shards` — nested inside a sweep job
  /// (WorkerPool::on_worker()), with a trace sink attached, or with one
  /// HammerVictimModel shared by several controllers, the epochs run
  /// inline on the caller — but the simulated results never depend on
  /// that (shard_workers_used() tells).
  void set_shards(unsigned shards, Cycle epoch = 0);
  unsigned shards() const { return shards_; }
  Cycle shard_epoch() const;
  /// Host-thread width of the most recent drain (1 without a plan;
  /// diagnostics: the oversubscription test asserts 1 inside sweep jobs).
  unsigned shard_workers_used() const { return shard_workers_used_; }

  /// Minimum completion-callback latency (CL + BL): the earliest a
  /// cross-shard effect routed through this memory system can matter, i.e.
  /// the memsys term of sim::conservative_epoch for closed-loop callers.
  Cycle min_callback_latency() const {
    return dram_cfg_.timings.cl + dram_cfg_.timings.bl;
  }

  /// Per-channel open-loop feeder for drain_sourced: next(ch, now, out)
  /// produces the channel's next request (addresses must decode to `ch`;
  /// returning false means the channel's stream is exhausted for good) and
  /// is called from the owning shard's thread, so it may only touch
  /// per-channel state. on_complete (optional) runs on the coordinating
  /// thread in canonical (completion cycle, channel, arrival) order: as
  /// requests retire with no plan, through the barrier mailboxes with one.
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

  /// drain() with per-channel feeders: runs until every source is
  /// exhausted and every queue drained (or `deadline`), with or without a
  /// shard plan, and returns the exact finish as drain() does — the same
  /// cycle, stats and completion order with no plan and at any width,
  /// epoch and clock mode. Deadline exhaustion is surfaced exactly like
  /// drain()'s (clip counter + optional throw): a low-rate open-loop run
  /// that cannot finish inside `deadline` must never silently report a
  /// truncated latency tail. A clipped sourced drain is not losslessly
  /// resumable, either: each call resets the feed state, so a produced but
  /// not-yet-admitted time-dated request from the clipped run is gone —
  /// treat a clip as fatal for the measurement (or restart the source).
  /// What the clipped call did admit still completes into its own
  /// on_complete — a copy this system retains — exactly once and in
  /// canonical order, in whichever later drain finishes it.
  Cycle drain_sourced(const ChannelSource& src, Cycle from, Cycle deadline = 100'000'000);

  // --- drain-deadline accounting ---

  /// What to do when drain()/drain_sourced() hits its deadline with work
  /// still pending (queued requests, in-flight bursts, or an unexhausted
  /// source): Record (default) just counts the clip; Throw additionally
  /// aborts through the armed watchdog's flight recorder (or a bare
  /// obs::WatchdogError when none is armed).
  enum class DeadlinePolicy : std::uint8_t { Record, Throw };
  void set_deadline_policy(DeadlinePolicy p) { deadline_policy_ = p; }
  /// True iff the most recent drain()/drain_sourced() returned because the
  /// deadline expired, not because the system went idle.
  bool last_drain_clipped() const { return last_drain_clipped_; }
  /// Total deadline clips over this system's lifetime (also registered as
  /// the `<prefix>.drain_deadline_clips` counter).
  std::uint64_t drain_deadline_clips() const { return drain_clips_; }

  /// Appends one ShardProgress per channel, with or without a plan: the
  /// obs::Watchdog::set_shard_progress payload.
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

  /// Arms `wd` on the drain loop (null disarms): without a shard plan it
  /// iterates at every cycle the loop visits, with one it checks at every
  /// barrier against per-shard anchors. Borrowed pointer; the watchdog
  /// throws obs::WatchdogError out of the drain when it fires.
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
  /// One deferred completion. An enqueue() request carries its own
  /// callback; a sourced request carries none and names its sink instead.
  struct Mail {
    Request req;
    CompletionCallback cb;
    std::uint32_t sink = 0;  // sinks_ index, read when cb is null
  };
  // Every per-channel record a shard thread writes owns its cache lines
  // (DESIGN.md "Sharded execution"): two threads never write one line,
  // whichever blocks they claim.
  /// Channel `c`'s barrier mailbox: written by its shard thread between
  /// barriers, delivered and cleared by the coordinator at them.
  struct alignas(64) Mailbox {
    std::vector<Mail> items;
  };
  /// Channel `c`'s open-loop feed state: written by its shard thread.
  struct alignas(64) Feed {
    bool exhausted = false;
    bool has_pending = false;
    Request pending;
  };
  static_assert(alignof(Mailbox) == 64 && sizeof(Mailbox) % 64 == 0);
  static_assert(alignof(Feed) == 64 && sizeof(Feed) % 64 == 0);

  /// Wraps a callback so it lands in channel `ch`'s barrier mailbox
  /// instead of firing on the shard thread. Null stays null.
  CompletionCallback defer_to_mailbox(std::uint32_t ch, CompletionCallback cb);
  /// Delivers all mailboxes in canonical (completion cycle, channel,
  /// arrival) order — the order a drain without a shard plan fires
  /// callbacks in as requests retire — by a k-way merge of the boxes, and
  /// clears them.
  void deliver_mail();
  /// A box's next undelivered mail in deliver_mail's merge.
  struct MailHead {
    Cycle complete;    // items[i].req.complete
    std::uint32_t ch;  // the box
    std::uint32_t i;   // its next item
  };
  /// Channels advanced together by one host thread, and where their last
  /// span left them. Under a plan each channel is its own block, claimed
  /// each epoch by whichever worker comes first; without one, one block
  /// holds every channel and runs inline (an inline callback may enqueue
  /// into any channel, so they must advance together). A single channel is
  /// the finest unit a worker can claim, which balances an epoch whose
  /// channels carry uneven work, and the cheapest to advance: run_block
  /// visits the union of its channels' event cycles and scans each channel
  /// at every visit. Its own cache line: whichever thread ran the block
  /// writes stop/done.
  struct alignas(64) Block {
    std::uint32_t beg = 0, end = 0;  // channels [beg, end)
    Cycle stop = 0;                  // cycle the last span reached
    bool done = false;               // that span stopped with no work left
  };
  static_assert(alignof(Block) == 64 && sizeof(Block) == 64);
  /// Advances `b` from b.stop towards `limit`, each channel fed and ticked
  /// at its own wake_ cycles only (runs on a pool worker under a plan;
  /// touches only the block's channels). `stoppable`: stop after the first
  /// visit that leaves every channel done (b.stop = that cycle + 1).
  void run_block(Block& b, Cycle limit, const ChannelSource* src, bool stoppable);
  /// Channels [beg, end) are idle and, with `src`, fed to exhaustion.
  bool channels_done(std::uint32_t beg, std::uint32_t end, const ChannelSource* src) const;
  /// Feeds channel `c` from `src` until its queue rejects or the stream
  /// exhausts (shard-thread side).
  void feed_channel(const ChannelSource& src, std::uint32_t c, Cycle now);
  /// Channel `c` is ticked (and fed) at `now`: every cycle under PerCycle,
  /// else once its cached wake has come or its mutation stamp moved.
  bool due(std::size_t c, Cycle now) const;
  /// Channel `c`'s next due cycle after it was fed (when `fed`) and ticked
  /// at `now` under SkipAhead: the exact wake rule of run_block.
  Cycle wake(std::uint32_t c, Cycle now, bool fed) const;
  /// Host-thread width for this drain: the armed shard count, collapsed to
  /// 1 when nested in a pool region, tracing, or sharing a victim model.
  unsigned decide_shard_workers() const;
  /// The one drain engine behind drain() and drain_sourced(); records a
  /// clip and enforces DeadlinePolicy::Throw via the watchdog.
  Cycle run_drain(Cycle from, Cycle deadline, const ChannelSource* src);
  /// Channel `c`'s term of the progress token: its command state-version
  /// plus its retire counts.
  std::uint64_t channel_token(std::uint32_t c) const;

  /// Per-channel wake cache: controller c's next_event (in a sourced
  /// drain, possibly its feed's earlier wake), valid while its mutation
  /// stamp still equals `stamp` (DESIGN.md "Clocking model"). One cache
  /// line each: shard threads rewrite their channels' wakes every visit.
  static constexpr std::uint64_t kStale = ~std::uint64_t{0};  // matches no stamp
  struct alignas(64) Wake {
    Cycle at = 0;
    std::uint64_t stamp = kStale;
  };
  static_assert(alignof(Wake) == 64 && sizeof(Wake) == 64);

  dram::DramConfig dram_cfg_;
  std::unique_ptr<dram::DataStore> data_;
  std::unique_ptr<dram::AddressMapper> mapper_;
  std::vector<std::unique_ptr<dram::Channel>> chans_;
  std::vector<std::unique_ptr<Controller>> ctrls_;
  obs::Watchdog* watchdog_ = nullptr;
  sim::ClockMode clock_mode_ = sim::default_clock_mode();
  mutable std::vector<Wake> wake_;  // per channel; also the drain calendar

  DeadlinePolicy deadline_policy_ = DeadlinePolicy::Record;
  bool last_drain_clipped_ = false;
  std::uint64_t drain_clips_ = 0;

  unsigned shards_ = 0;  // 0 = no plan: one inline block
  Cycle shard_epoch_ = 0;
  unsigned shard_workers_used_ = 0;
  bool trace_attached_ = false;
  std::unique_ptr<harness::WorkerPool> pool_;          // lazily built, reused
  std::vector<Block> blocks_;                          // channel blocks
  std::vector<std::uint32_t> behind_;  // scratch: blocks an advance runs
  std::vector<Mailbox> mail_;  // per channel, shard-written, line-aligned
  std::vector<Feed> feeds_;    // per channel, shard-written, line-aligned
  // The on_complete of each sourced drain whose requests may still be in
  // flight, indexed by Mail::sink; released once a drain ends idle.
  std::vector<std::function<void(std::uint32_t, const Request&)>> sinks_;
  std::uint32_t sink_ = 0;  // this sourced drain's sinks_ index
  std::vector<MailHead> mail_heads_;  // scratch: deliver_mail's merge heap
  // Liveness token for the registry's registration-epoch check (see
  // obs/stat_registry.hh): reads after this MemorySystem dies throw.
  std::shared_ptr<const void> stats_alive_ = std::make_shared<int>(0);
};

/// The completion fold that summarises an open-loop run: folds request
/// `done`, delivered on channel `ch`, into digest `x`. Order-sensitive, so
/// over the canonical mailbox order it is a cross-width invariant.
inline std::uint64_t fold_completion(std::uint64_t x, std::uint32_t ch, const Request& done) {
  return (x * 1099511628211ull) ^ done.addr ^ (static_cast<std::uint64_t>(done.complete) << 1) ^
         ch;
}

/// The hashed open-loop stream: `ops` requests per channel of `sys`, the
/// i-th on channel `ch` a pure function of h = harness::job_seed(seed,
/// ch * 0x10001 + i) — rank h, bank h >> 8, row h >> 16 and column h >> 40,
/// each modulo its geometry field — with every fourth op a write and
/// `core = ch % cores`. Completions fold into `*checksum` (fold_completion)
/// when it is non-null. The source borrows `sys` and `checksum`.
MemorySystem::ChannelSource hashed_source(const MemorySystem& sys, std::uint64_t ops,
                                          std::uint64_t seed, std::uint32_t cores,
                                          std::uint64_t* checksum = nullptr);

}  // namespace ima::mem
