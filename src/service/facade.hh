// Narrow per-channel queue facade over mem::MemorySystem.
//
// Accelerator-simulator front-ends (ONNXim's Dram interface is the model)
// talk to memory through four verbs per channel — push / is_full / top /
// pop — plus a clock hook. MemoryService provides exactly that surface over
// the full timing model: push routes through MemorySystem::enqueue (so the
// sharded-drain mailbox machinery composes unchanged), completions land in
// per-channel response queues in the canonical callback order (or, for a
// pump with a completion hook, go to that hook instead), and the two time
// hooks (tick for closed-loop callers, drain_to / pump for open-loop
// feeders) advance the underlying system.
//
// The facade's contract is *loss-free by construction* (the PR 8 bugfix):
// MemorySystem::enqueue returns bool and a discarded false silently loses
// the request and its completion accounting. Here the narrow interface
// makes that impossible — push() after is_full() == false always admits
// (the pair is checked against the controller's own can_accept, which
// enqueue agrees with exactly), and any violation throws std::logic_error
// instead of dropping. Every request is counted at push and at completion
// delivery, so `pushed() == completed() + in_flight()` holds at all times
// and a saturation test can prove nothing leaked.
//
// Determinism: per-channel response order equals the per-channel completion
// order the serial drain produces; under a shard plan the mailbox delivery
// reproduces that order byte-for-byte at any IMA_SHARDS width, so a
// facade-driven run snapshots identically at every width (tests/
// service_test.cc golden matrix).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/memsys.hh"

namespace ima::service {

class MemoryService {
 public:
  /// Borrows `mem`; the facade must not outlive it. The response queues are
  /// per-channel from construction.
  explicit MemoryService(mem::MemorySystem& mem);

  std::uint32_t num_channels() const { return static_cast<std::uint32_t>(resp_.size()); }

  /// Channel a request for `addr` would be served by (ONNXim
  /// get_channel_id): the address mapper's decode, not a modulus guess.
  std::uint32_t channel_of(Addr addr) const {
    return mem_.mapper().decode(addr).channel;
  }

  /// True if channel `ch` cannot admit a request of this type/core right
  /// now. While this returns false, push() on the same channel is
  /// guaranteed to succeed — the check and the admission are the same
  /// controller predicate.
  bool is_full(std::uint32_t ch, const mem::Request& r) const;

  /// Admit `r` on channel `ch` at cycle `now` (stamped into r.arrive; set
  /// r.tag yourself for open-loop intended-arrival accounting). Throws
  /// std::logic_error if the channel is full (callers must gate on
  /// is_full) or if r.addr does not decode to `ch` — a misrouted or
  /// dropped request is never silent.
  void push(std::uint32_t ch, mem::Request r, Cycle now);

  /// Response-side verbs (ONNXim idiom): completed requests, per channel,
  /// in canonical completion order.
  bool is_empty(std::uint32_t ch) const { return resp_[ch].empty(); }
  /// Oldest undelivered completion on `ch`; throws std::logic_error when
  /// empty (top on an empty queue is a protocol violation, not UB).
  const mem::Request& top(std::uint32_t ch) const;
  void pop(std::uint32_t ch);

  // --- time hooks ---

  /// Closed-loop clock: advance every controller one cycle. Throws
  /// std::logic_error while a shard plan is armed — with shards,
  /// completion callbacks sit in the barrier mailboxes that only
  /// drain_to()/pump() deliver, so a tick-driven loop would strand every
  /// response.
  void tick(Cycle now);

  /// Run the underlying system until idle (or `deadline`) and return the
  /// exact finish; completions are delivered into the response queues as
  /// they retire, or at the epoch barriers under an armed shard plan (see
  /// MemorySystem::drain for the return and deadline-clip contracts).
  Cycle drain_to(Cycle from, Cycle deadline = 100'000'000);

  /// Open-loop serving pump: feeds `src` through
  /// MemorySystem::drain_sourced and hands each completion, in canonical
  /// order, to exactly one consumer: src.on_complete when it is set (the
  /// response queues stay untouched), else the response queues. Arms a
  /// shard plan automatically when none is armed (max(1, $IMA_SHARDS)),
  /// which needs a quiescent system: with push()ed requests still
  /// outstanding it throws std::logic_error (MemorySystem::set_shards).
  /// Counts feeds and completions either way, like push(): nothing is lost
  /// silently, and `pushed() == completed() + in_flight()` holds.
  Cycle pump(const mem::MemorySystem::ChannelSource& src, Cycle from,
             Cycle deadline = 100'000'000);

  // --- loss accounting (the saturation regression test's witnesses) ---

  /// Requests admitted through push() or a pump() source.
  std::uint64_t pushed() const;
  /// Completions delivered: into the response queues (popped or not), or
  /// to a pump() hook.
  std::uint64_t completed() const { return completed_; }
  /// Admitted but not yet completed.
  std::uint64_t in_flight() const { return pushed() - completed_; }
  /// Undelivered responses across all channels.
  std::uint64_t responses_queued() const;

  mem::MemorySystem& memory() { return mem_; }
  const mem::MemorySystem& memory() const { return mem_; }

  /// Checkpoint the facade: undelivered response queues (plain Request
  /// data) and the loss-accounting counters. The underlying MemorySystem is
  /// saved separately by the owner; quiescence is its contract, not ours —
  /// delivered-but-unpopped responses are valid checkpoint state.
  template <class Ar>
  void fields(Ar& ar) {
    ar.section("service");
    ar.fixed(resp_, "service channel count");
    ar(pushed_);
    ar.fixed(fed_, "service fed counter width");
    ar(completed_);
  }

 private:
  mem::CompletionCallback on_complete(std::uint32_t ch);

  /// One channel's pump() feed count. Single-writer on the channel's shard
  /// thread, and on a cache line of its own so two shards' feeds never
  /// write one line. Serializes as the bare counter.
  struct alignas(64) FedCount {
    std::uint64_t n = 0;

    template <class Ar>
    void fields(Ar& ar) {
      ar(n);
    }
  };
  static_assert(alignof(FedCount) == 64 && sizeof(FedCount) == 64);

  mem::MemorySystem& mem_;
  std::vector<std::deque<mem::Request>> resp_;  // per-channel responses
  std::uint64_t pushed_ = 0;            // push() admissions (caller thread)
  std::vector<FedCount> fed_;           // pump() feeds, per channel
  std::uint64_t completed_ = 0;         // delivered completions (coordinator)
};

}  // namespace ima::service
