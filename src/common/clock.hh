// Event-driven clocking kernel.
//
// The per-cycle tick loop burns host time on idle gaps: DRAM banks waiting
// out tRC/tRFC, cores stalled on misses, ranks sleeping between refreshes.
// Ramulator-class simulators get their throughput from skip-ahead clocking:
// every component reports the earliest future cycle at which its state can
// change (`next_event`), and the driving loop jumps `now` straight there
// instead of incrementing.
//
// The `next_event(now)` contract (see DESIGN.md "Clocking model"):
//   - returns the earliest cycle > now at which ticking the component could
//     change any observable state (stats, queues, callbacks, power states);
//   - returning `now + 1` is always safe (degenerates to per-cycle);
//   - returning kCycleNever means "nothing will ever happen without external
//     input" (an enqueue between ticks re-arms the loop because next_event
//     is re-evaluated after every tick);
//   - all component state must be a function of `now`, never of how many
//     times tick() was called, and a query that depends on time takes the
//     cycle it asks about (no cached "last ticked" cycle), so skipped
//     cycles are provably no-ops that need nothing written in their place.
//
// ClockMode::PerCycle keeps the legacy cycle-by-cycle loop (tick every
// cycle); it is the debugging reference that skip-ahead must match
// cycle-exactly (tests/clock_test.cc proves identical cycle counts and
// StatRegistry snapshots across both modes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "common/types.hh"

namespace ima::sim {

enum class ClockMode : std::uint8_t {
  PerCycle,   // legacy reference: tick every cycle
  SkipAhead,  // event-driven: jump to the minimum next-event cycle
};

const char* to_string(ClockMode m);

/// Process-wide default: SkipAhead, unless the environment overrides it
/// with IMA_CLOCK=percycle (handy for bisecting a suspected kernel bug
/// without rebuilding). Read once and cached; any other value than
/// percycle, per-cycle, skipahead or skip-ahead throws
/// std::invalid_argument.
ClockMode default_clock_mode();

/// The cycle the event loop advances to after ticking at `now`.
/// `reported` is the component's next_event value; stale or degenerate
/// reports (<= now) fall back to now + 1 so the loop always progresses.
constexpr Cycle next_cycle(ClockMode mode, Cycle now, Cycle limit, Cycle reported) {
  if (mode == ClockMode::PerCycle || reported <= now) return now + 1;
  return std::min(reported, limit);
}

/// The shared run/drain loop shape: watch, tick, check the stop predicate,
/// advance. Mirrors the legacy loops exactly:
///   - `done` is evaluated *after* each tick; when it fires the returned
///     cycle is the cycle just ticked (System::run semantics);
///   - when `limit` is reached without `done`, returns `limit`.
/// Drain-style callers (stop-before-tick, return last+1) wrap this — see
/// HybridMemory::drain.
///
/// `watch(now)` runs at the top of every iteration, before the tick. The
/// hook is a template callable (not an obs type) so the clocking kernel
/// stays dependency-free; obs::Watchdog::iterate is the intended payload —
/// it detects a loop that keeps iterating while the progress token is
/// frozen, which is exactly the shape of a wedged refresh backlog crawling
/// through `next = now + 1`.
template <typename TickFn, typename DoneFn, typename NextFn, typename WatchFn>
Cycle run_event_loop(ClockMode mode, Cycle from, Cycle limit, TickFn&& tick,
                     DoneFn&& done, NextFn&& next, WatchFn&& watch) {
  Cycle now = from;
  while (now < limit) {
    watch(now);
    tick(now);
    if (done()) break;
    // PerCycle never consults next(): with the precise busy lower bound,
    // next_event is an O(queued work) scan, too expensive to compute and
    // discard every cycle of the reference mode.
    now = mode == ClockMode::PerCycle ? now + 1
                                      : next_cycle(mode, now, limit, next(now));
  }
  return now;
}

/// Unwatched loop: the same body with a no-op watch hook, which inlines
/// away.
template <typename TickFn, typename DoneFn, typename NextFn>
Cycle run_event_loop(ClockMode mode, Cycle from, Cycle limit, TickFn&& tick,
                     DoneFn&& done, NextFn&& next) {
  return run_event_loop(mode, from, limit, std::forward<TickFn>(tick),
                        std::forward<DoneFn>(done), std::forward<NextFn>(next), [](Cycle) {});
}

// --- sharded execution (epoch barriers) ------------------------------------
//
// Sharded drains partition a memory system's channels into contiguous
// blocks that shard workers claim and advance independently through
// fixed-length epochs, with a global barrier at every epoch boundary
// (DESIGN.md "Sharded execution"; the loop is MemorySystem::run_drain).
// Between barriers each channel is ticked at its own next_event cycles;
// cross-shard effects (completion callbacks) are deferred to per-channel
// mailboxes drained in canonical order at the barrier. Correctness rests
// on the same invariant PerCycle vs SkipAhead equality already proves:
// ticking a component at a non-event cycle is observably a no-op, so each
// channel's state evolution is a function of its own event set, not of
// which block (and therefore which union of tick cycles) it lands in.

/// Default epoch length between shard barriers: $IMA_SHARD_EPOCH when set
/// to a positive integer, else 8192 cycles (a malformed value throws, see
/// common/env.hh). Open-loop drains are exact at any epoch length (deferred
/// callbacks never feed back into the epoch); the default just trades
/// barrier overhead against callback-delivery granularity. Read once and
/// cached.
Cycle default_shard_epoch();

/// Conservative-lookahead epoch bound for *closed-loop* co-simulation: the
/// minimum positive cross-shard latency among `latencies` (0 entries mean
/// "component not present"), clamped to at least 1. A consumer that
/// re-injects work in reaction to a completion can never observe a
/// cross-shard effect earlier than the fastest such path — the memory
/// system's minimum callback latency (CL + BL), a NoC hop time — so an
/// epoch no longer than that bound delivers every cross-shard interaction
/// before it could matter. Returns `fallback` when no latency is positive.
Cycle conservative_epoch(std::initializer_list<Cycle> latencies, Cycle fallback);

}  // namespace ima::sim
