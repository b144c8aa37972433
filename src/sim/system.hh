// Full-system wiring: trace-driven cores -> private L1s -> shared L2 ->
// memory controller(s) -> DRAM, with optional prefetching, plus the
// system-level energy accounting used by the data-movement experiments.
#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetch.hh"
#include "common/clock.hh"
#include "common/ring_queue.hh"
#include "core/core.hh"
#include "mem/memsys.hh"
#include "workloads/stream.hh"

namespace ima::obs {
class StatRegistry;
class TimeSeries;
class TraceSink;
class Watchdog;
}  // namespace ima::obs

namespace ima::sim {

enum class PrefetchKind : std::uint8_t { None, NextLine, Stride, Ghb, FilteredStride, Feedback };

const char* to_string(PrefetchKind k);

struct SystemConfig {
  dram::DramConfig dram = dram::DramConfig::ddr4_2400();
  mem::ControllerConfig ctrl;
  dram::MapScheme map = dram::MapScheme::RoBaRaCoCh;
  std::uint32_t num_cores = 4;
  core::CoreConfig core;
  cache::CacheConfig l1 = {.name = "L1", .size_bytes = 32 * 1024, .ways = 8,
                           .repl = cache::ReplPolicy::Lru, .hit_latency = 4};
  cache::CacheConfig l2 = {.name = "L2", .size_bytes = 2 * 1024 * 1024, .ways = 16,
                           .repl = cache::ReplPolicy::Lru, .hit_latency = 24};
  PrefetchKind prefetch = PrefetchKind::None;

  // Clocking: SkipAhead is cycle-exact vs. PerCycle (tests/clock_test.cc)
  // and much faster on idle-heavy runs; PerCycle is the debugging
  // reference. IMA_CLOCK=percycle overrides the default process-wide.
  ClockMode clock = default_clock_mode();

  // Energy model (pJ). Core energy per instruction covers fetch/decode/ALU;
  // movement energy is the caches + DRAM + off-chip bus.
  PicoJoule e_instr = 300.0;
  PicoJoule e_l1_access = 12.0;
  PicoJoule e_l2_access = 55.0;
};

class System final : public core::MemoryPort {
 public:
  /// One stream per core (cfg.num_cores of them).
  System(const SystemConfig& cfg,
         std::vector<std::unique_ptr<workloads::AccessStream>> streams);
  ~System() override;  // out-of-line: TraceSink is forward-declared here

  /// Runs until every core hits its instruction limit or `max_cycles`
  /// elapses. Returns the final cycle count. Driven by the event kernel
  /// (common/clock.hh) in the configured ClockMode.
  Cycle run(Cycle max_cycles);

  /// Earliest future cycle at which any component has work: the memory
  /// system's next event, pending writebacks (retried every cycle), and
  /// each core's next event.
  Cycle next_event(Cycle now) const;

  // MemoryPort
  std::optional<Cycle> issue(std::uint32_t core, const workloads::TraceEntry& access, Cycle now,
                             std::function<void(Cycle)> done,
                             bool speculative = false) override;

  const core::SimpleCore& core_at(std::uint32_t i) const { return *cores_[i]; }
  const cache::Cache& l1(std::uint32_t i) const { return *l1s_[i]; }
  const cache::Cache& l2() const { return *l2_; }
  mem::MemorySystem& memory() { return *mem_; }
  const mem::MemorySystem& memory() const { return *mem_; }
  Cycle now() const { return now_; }

  struct EnergyBreakdown {
    PicoJoule compute = 0;
    PicoJoule cache = 0;
    PicoJoule dram_dynamic = 0;
    PicoJoule dram_background = 0;
    PicoJoule total() const { return compute + cache + dram_dynamic + dram_background; }
    double movement_fraction() const {
      const PicoJoule t = total();
      return t > 0 ? (cache + dram_dynamic + dram_background) / t : 0.0;
    }
  };
  EnergyBreakdown energy() const;

  struct PrefetchStats {
    std::uint64_t issued = 0;
    std::uint64_t useful = 0;
    std::uint64_t useless = 0;
    std::uint64_t dropped_by_filter = 0;

    template <class Ar>
    void fields(Ar& ar) {
      ar(issued, useful, useless, dropped_by_filter);
    }
  };
  const PrefetchStats& prefetch_stats() const { return pf_stats_; }

  /// Per-core IPC over the whole run.
  std::vector<double> core_ipcs() const;

  /// Registers the full hierarchy — cores, L1s, L2, prefetcher, memory
  /// system — under `prefix` (default "sys"). Call once wiring is final.
  void register_stats(obs::StatRegistry& reg, const std::string& prefix = "sys") const;

  /// Allocates a ring-buffered trace sink of `capacity` events and attaches
  /// it to the memory system and prefetch path. Idempotent per capacity.
  obs::TraceSink& enable_trace(std::size_t capacity = 1 << 16);
  obs::TraceSink* trace() { return trace_.get(); }

  /// Attaches a windowed sampler (borrowed; null detaches): advanced at the
  /// top of every tick and once more at the end of run(), so the sample
  /// stream is identical in every clock mode (see obs/timeseries.hh).
  void set_timeseries(obs::TimeSeries* ts) { timeseries_ = ts; }

  /// Arms an owned no-progress watchdog on the run() loop (and the memory
  /// system's drains). Progress = memory-system token + core retire counts;
  /// the crash artifact embeds this system's stats, trace tail (when
  /// enabled) and the memory/core flight-recorder dumps. `stall_cycles` = 0
  /// keeps the default threshold. run() arms one lazily when IMA_WATCHDOG
  /// is a positive integer (the stall threshold in cycles); a malformed
  /// value throws (common/env.hh).
  obs::Watchdog& arm_watchdog(std::uint64_t stall_cycles = 0);
  obs::Watchdog* watchdog() { return watchdog_.get(); }

  // --- checkpoint/restore (common/ckpt.hh) ---

  /// Serializes the whole hierarchy — cores (incl. access streams and the
  /// runahead lookahead), both cache levels, the prefetcher, the pending
  /// writeback queue, prefetch bookkeeping, the clock, and the full memory
  /// system (which must be quiescent: ErrorKind::State otherwise).
  template <class Ar>
  void fields(Ar& ar);

  /// Sealed-file forms of ckpt::save / ckpt::restore (magic + version +
  /// CRC, atomic write); restore checks the whole image before touching any
  /// state and requires a target constructed with the identical
  /// configuration and stream set.
  void save(const std::string& path) const;
  void restore(const std::string& path);

 private:
  void handle_l1_victim(std::uint32_t core, const cache::Cache::FillResult& fr);
  void enqueue_mem_write(Addr addr);
  void issue_prefetches(Addr addr, std::uint64_t pc, bool was_miss);
  void flush_pending_writes();
  /// A prefetched L2 line left `prefetched_` (demanded or evicted): count
  /// it, emit the trace event and train the prefetcher. No-op for lines the
  /// prefetcher never brought in.
  void retire_prefetched(Addr line, bool useful);

  SystemConfig cfg_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::vector<std::unique_ptr<cache::Cache>> l1s_;
  std::unique_ptr<cache::Cache> l2_;
  std::vector<std::unique_ptr<core::SimpleCore>> cores_;
  std::unique_ptr<cache::Prefetcher> prefetcher_;
  cache::TrainablePrefetcher* trainable_ = nullptr;  // non-owning view when enabled

  RingQueue<Addr> pending_writes_;        // writebacks awaiting queue space
  std::unordered_set<Addr> prefetched_;   // L2 lines filled by prefetch, untouched
  std::unordered_map<Addr, std::uint64_t> prefetch_pc_;  // training context
  PrefetchStats pf_stats_;
  std::unique_ptr<obs::TraceSink> trace_;
  obs::TimeSeries* timeseries_ = nullptr;
  std::unique_ptr<obs::Watchdog> watchdog_;
  std::unique_ptr<obs::StatRegistry> wd_registry_;  // artifact stats snapshot
  Cycle now_ = 0;
  // Liveness token for the registry's registration-epoch check: resets on
  // destruction, so stats read after this System dies fail loudly.
  std::shared_ptr<const void> stats_alive_ = std::make_shared<int>(0);
};

}  // namespace ima::sim
