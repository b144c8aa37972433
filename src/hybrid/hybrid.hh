// Hybrid main memory: a small fast DRAM tier in front of large, cheap,
// non-volatile PCM — the paper's data-centric pillar of "low-cost data
// storage" via new memory technologies (Lee et al., ISCA 2009 [22];
// Qureshi et al., ISCA 2009 [92]; Yoon et al., ICCD 2012 [89]).
//
// Pages live in PCM by default; a page table maps hot pages into DRAM
// slots. Placement policies:
//   Static     — first pages (by address) pinned in DRAM (no intelligence)
//   HotPage    — epoch access counters promote the hottest pages (CLOCK-ish)
//   RblAware   — row-buffer-locality aware (Yoon+): only pages whose
//                accesses *miss* the row buffer benefit from DRAM, since
//                PCM row-buffer hits are as fast as DRAM's; prioritize
//                promoting low-locality pages.
// Migrations generate real traffic (line reads from the source tier,
// posted writes to the destination) so their cost is simulated, not
// assumed.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/memsys.hh"

namespace ima::hybrid {

/// PCM timing/energy calibration (read ~2x DRAM latency, writes ~6x and
/// energy-hungry, no refresh).
dram::DramConfig pcm_config();

enum class Placement : std::uint8_t { Static, HotPage, RblAware };

const char* to_string(Placement p);

struct HybridConfig {
  std::uint64_t page_bytes = 4096;
  std::uint64_t dram_bytes = 16ull << 20;   // DRAM tier capacity
  Placement policy = Placement::HotPage;
  std::uint32_t hot_threshold = 8;          // accesses/epoch to promote
  Cycle epoch = 100'000;
  std::uint32_t max_migrations_per_epoch = 32;
  mem::ControllerConfig ctrl;
  dram::DramConfig dram = dram::DramConfig::ddr4_2400();
  dram::DramConfig pcm = pcm_config();
};

class HybridMemory {
 public:
  explicit HybridMemory(const HybridConfig& cfg);

  /// Application address space = PCM capacity. Routed by the page table.
  /// False = not admitted, `cb` never fires (same contract as
  /// mem::MemorySystem::enqueue — gate on can_accept or retry).
  [[nodiscard]] bool enqueue(mem::Request req, mem::CompletionCallback cb = nullptr);
  /// True if the tier the page maps to can accept the request now (`core`
  /// as in mem::MemorySystem::can_accept).
  bool can_accept(Addr addr, AccessType type,
                  std::uint32_t core = mem::Controller::kAnyCore) const;

  void tick(Cycle now);

  /// Earliest future cycle with work in either tier or at the next
  /// placement epoch (common/clock.hh contract).
  Cycle next_event(Cycle now) const;

  Cycle drain(Cycle from, Cycle deadline = 200'000'000);
  bool idle() const;

  /// Sets the mode of drain() and of both tiers' memory systems.
  void set_clock_mode(sim::ClockMode mode);
  sim::ClockMode clock_mode() const { return clock_mode_; }

  struct Stats {
    std::uint64_t dram_serviced = 0;
    std::uint64_t pcm_serviced = 0;
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t migration_lines = 0;
    // Migration traffic the tiers' queues rejected. The best-effort model
    // tolerates drops (the movement *cost* is what is simulated), but they
    // are counted, never silent: a policy thrashing against full queues
    // shows up here instead of under-reporting its own overhead.
    std::uint64_t migration_drops = 0;
    std::uint64_t pcm_writes = 0;  // endurance-relevant
    double dram_fraction() const {
      const auto total = dram_serviced + pcm_serviced;
      return total ? static_cast<double>(dram_serviced) / static_cast<double>(total) : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }

  PicoJoule total_energy(Cycle now) const {
    return dram_->total_energy(now) + pcm_->total_energy(now);
  }
  const mem::Controller::Stats& dram_ctrl_stats() const {
    return dram_->controller(0).stats();
  }
  const mem::Controller::Stats& pcm_ctrl_stats() const {
    return pcm_->controller(0).stats();
  }

  std::uint64_t dram_slots() const { return cfg_.dram_bytes / cfg_.page_bytes; }
  bool in_dram(Addr addr) const { return page_table_.count(addr / cfg_.page_bytes) > 0; }

 private:
  struct PageInfo {
    std::uint32_t epoch_accesses = 0;
    std::uint32_t epoch_row_hits = 0;  // for RblAware
  };

  void on_epoch(Cycle now);
  void promote(std::uint64_t page, Cycle now);
  void demote(std::uint64_t page, Cycle now);
  void migrate_lines(std::uint64_t page, bool to_dram, Cycle now);

  HybridConfig cfg_;
  std::unique_ptr<mem::MemorySystem> dram_;
  std::unique_ptr<mem::MemorySystem> pcm_;

  // page -> DRAM slot (resident pages only).
  std::unordered_map<std::uint64_t, std::uint64_t> page_table_;
  std::vector<std::uint64_t> slot_owner_;   // slot -> page (~0 = free)
  std::deque<std::uint64_t> free_slots_;
  std::unordered_map<std::uint64_t, PageInfo> epoch_info_;
  std::uint64_t last_row_ = ~0ull;  // globally last-touched DRAM-row-sized region
  Cycle next_epoch_;
  sim::ClockMode clock_mode_ = sim::default_clock_mode();
  Stats stats_;
};

}  // namespace ima::hybrid
