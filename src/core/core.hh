// Trace-driven core model.
//
// Each core consumes an AccessStream: it retires `compute` instructions at
// a fixed width, then performs the memory access. Loads block the core
// until data returns (the hierarchy supplies latency or an async
// completion); stores are posted. This is the standard lightweight core
// used by memory-system studies — IPC differences then reflect the memory
// system, which is the object of study.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>

#include "common/types.hh"
#include "workloads/stream.hh"

namespace ima::core {

/// The memory hierarchy's interface to the core. `issue` starts an access;
/// the hierarchy must either return a ready cycle (synchronous hit) or
/// kCycleNever, in which case it later calls the completion function.
class MemoryPort {
 public:
  virtual ~MemoryPort() = default;

  /// Returns the cycle at which the access completes, or kCycleNever for an
  /// asynchronous miss (completion delivered via `done`), or std::nullopt
  /// meaning "retry next cycle" (queue full). `speculative` marks runahead
  /// prefetches: they warm the hierarchy but nobody waits for them.
  virtual std::optional<Cycle> issue(std::uint32_t core, const workloads::TraceEntry& access,
                                     Cycle now, std::function<void(Cycle)> done,
                                     bool speculative = false) = 0;
};

struct CoreConfig {
  std::uint32_t width = 2;             // compute instructions retired per cycle
  std::uint64_t instr_limit = 0;       // stop after this many instructions (0 = unbounded)

  // Runahead execution (Mutlu et al., HPCA 2003 [154]): on a blocking load
  // miss, keep fetching down the instruction stream and issue future loads
  // as prefetches instead of idling; architected state is discarded, so
  // the benefit is purely memory-level parallelism.
  bool runahead = false;
  std::uint32_t runahead_depth = 8;    // max speculative accesses per miss
};

class SimpleCore {
 public:
  SimpleCore(std::uint32_t id, std::unique_ptr<workloads::AccessStream> stream,
             MemoryPort& port, const CoreConfig& cfg);

  /// Advance to cycle `now`. Ticks need not be consecutive: stall and
  /// compute accounting is delta-based, so any tick schedule that includes
  /// every cycle next_event() reports reproduces the per-cycle run exactly.
  void tick(Cycle now);

  /// Earliest future cycle at which this core does something
  /// (common/clock.hh contract): wake-up from a blocking load, the cycle
  /// compute retirement exhausts the current entry or crosses the
  /// instruction limit, or now + 1 while issuing/retrying/runahead is
  /// active. kCycleNever while blocked on an asynchronous miss (the memory
  /// system's retire event drives the wake-up) or when done.
  Cycle next_event(Cycle now) const;

  bool done() const {
    return cfg_.instr_limit != 0 && stats_.instructions >= cfg_.instr_limit;
  }

  struct Stats {
    std::uint64_t instructions = 0;    // compute + memory ops
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t runahead_prefetches = 0;
    Cycle finish_cycle = 0;
    template <class Ar>
    void fields(Ar& ar) {
      ar(instructions, loads, stores, stall_cycles, runahead_prefetches, finish_cycle);
    }
    double ipc(Cycle elapsed) const {
      return elapsed ? static_cast<double>(instructions) / static_cast<double>(elapsed) : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }
  std::uint32_t id() const { return id_; }

  /// Flight-recorder dump: pipeline state flags, wake-up cycle and retire
  /// counters (one line). Embedded in watchdog artifacts.
  void dump(std::ostream& os, Cycle now) const;

  /// Checkpoint pipeline state, runahead lookahead buffer, retire counters
  /// and the access stream. Requires no outstanding asynchronous access
  /// (the memory system must be idle): the completion closure handed to the
  /// port is not serializable.
  template <class Ar>
  void fields(Ar& ar);

 private:
  void fetch_next();
  void runahead_step(Cycle now);

  std::uint32_t id_;
  std::unique_ptr<workloads::AccessStream> stream_;
  MemoryPort& port_;
  CoreConfig cfg_;

  // Entries fetched ahead of the architected stream during runahead; the
  // normal path consumes these first so no work is lost or duplicated.
  std::deque<workloads::TraceEntry> lookahead_;
  std::size_t runahead_pos_ = 0;      // next lookahead entry to prefetch
  std::uint32_t runahead_issued_ = 0; // speculative accesses this miss

  workloads::TraceEntry current_{};
  std::uint32_t compute_left_ = 0;
  bool access_pending_ = false;   // access not yet issued (or retrying)
  bool waiting_ = false;          // blocked on an outstanding load
  bool async_done_ = false;       // async completion already delivered
  Cycle ready_at_ = 0;            // wakeup cycle
  Cycle last_tick_ = kCycleNever; // previous tick cycle (kCycleNever = none yet)
  Stats stats_;
};

}  // namespace ima::core
