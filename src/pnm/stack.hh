// Processing-Near-Memory: 3D-stacked memory with logic-layer cores.
//
// The stack is one memory system whose channels are its `vaults`
// (HBM/HMC-like per-vault timing and energy, one controller per vault),
// with one simple in-order PNM core per vault on the logic layer and a
// vault-to-vault NoC for remote accesses (Tesseract-style [9]). Host access
// to the same stack pays the off-package link latency and energy; PNM cores
// access their vault directly — that asymmetry is the entire PNM argument.
//
// Two drivers run on that one model, each on a fresh memory system per run:
//   - run_pnm/run_host: a closed loop on the shared event kernel
//     (sim::run_event_loop) with two calendars. A vault is ticked only at
//     its controller's own next_event or right after a core enqueues into
//     it. A core is stepped only at its own wake: the cycle its compute
//     burst ends, one of its reads returns, the host link frees, or a vault
//     that refused it for a full queue ticks. Each visit finds its due
//     vaults, then its due cores, with a branch-free mask and steps each in
//     index order, so the results equal those of stepping every core at
//     every cycle. IMA_CLOCK=percycle ticks every vault every cycle and
//     gives identical results. Cores and vaults interleave every cycle, so
//     this loop runs on one host thread.
//   - run_stream: open-loop per-vault offload streams fed through
//     MemorySystem::drain_sourced under a shard plan, so
//     64–256-vault stacks run across host threads and give byte-identical
//     results at any shard width (tests/shard_test.cc).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/core.hh"
#include "dram/addrmap.hh"
#include "dram/config.hh"
#include "mem/memsys.hh"

namespace ima::obs {
class TraceSink;
}  // namespace ima::obs

namespace ima::pnm {

struct PnmConfig {
  std::uint32_t vaults = 16;
  dram::DramConfig vault_dram = dram::DramConfig::hbm_stack_channel();
  mem::ControllerConfig ctrl;

  // PNM logic-layer cores: narrow in-order, with a small prefetch/miss
  // buffer (Tesseract pairs its cores with list prefetchers).
  std::uint32_t core_width = 1;
  std::uint32_t pnm_mlp = 4;

  // Host cores: wide OoO with a deep miss window — individually much
  // stronger than a PNM core. The stack's advantage is bandwidth/latency,
  // not core quality, so the baseline must not be strawmanned.
  std::uint32_t host_core_width = 4;
  std::uint32_t host_mlp = 8;

  Cycle remote_hop_latency = 24;         // vault-to-vault NoC round trip
  Cycle host_link_latency = 40;          // host SoC <-> stack round trip
  // Off-package pin bandwidth: cycles of link occupancy per 64B line
  // (~21GB/s at a 1GHz controller clock — one DDR4 channel equivalent).
  // The aggregate internal vault bandwidth is far higher — the PIM
  // "top-down pull" in one number.
  Cycle host_link_cycles_per_line = 3;

  PicoJoule e_noc_per_line = 180.0;      // in-stack network transfer
  PicoJoule e_host_link_per_line = 1900.0;  // off-package SerDes transfer
  PicoJoule e_pnm_instr = 120.0;         // simple core, no big OoO structures
  PicoJoule e_host_instr = 300.0;        // host core energy per instruction
};

/// One terminating per-vault work list: each entry is compute then access.
struct PnmAccess {
  std::uint32_t compute = 0;
  Addr addr = 0;  // stack-global address; vault = addr / vault_bytes
  AccessType type = AccessType::Read;
};

using VaultTrace = std::vector<PnmAccess>;

/// The memory stack plus its logic-layer cores.
class PnmStack {
 public:
  /// Throws std::invalid_argument unless `vaults` is a nonzero power of two
  /// (a vault is a channel of the stack's memory system, whose address map
  /// needs that) and `vault_dram` describes a single channel.
  explicit PnmStack(const PnmConfig& cfg);

  std::uint64_t vault_bytes() const { return cfg_.vault_dram.geometry.total_bytes(); }
  std::uint64_t total_bytes() const { return vault_bytes() * cfg_.vaults; }
  std::uint32_t vault_of(Addr addr) const {
    return static_cast<std::uint32_t>(addr / vault_bytes());
  }
  Addr local_addr(Addr addr) const { return addr % vault_bytes(); }

  /// Runs one trace per vault to completion on the PNM cores.
  /// Returns total cycles.
  struct RunResult {
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t local_accesses = 0;
    std::uint64_t remote_accesses = 0;
    PicoJoule energy = 0;
  };
  /// Throws std::invalid_argument unless there is one trace per vault and
  /// every address is below total_bytes(), and std::runtime_error when work
  /// is still queued at `max_cycles`.
  RunResult run_pnm(const std::vector<VaultTrace>& traces, Cycle max_cycles = 2'000'000'000);

  /// Runs the union of the traces on `host_cores` host-side cores through
  /// the off-package link (round-robin interleaved), no caches — the
  /// stream-through baseline. Returns the same metrics. Throws
  /// std::invalid_argument for zero `host_cores` or an address at or beyond
  /// total_bytes(), and std::runtime_error when work is still queued at
  /// `max_cycles`.
  RunResult run_host(const std::vector<VaultTrace>& traces, std::uint32_t host_cores,
                     Cycle max_cycles = 2'000'000'000);

  struct StreamResult {
    Cycle cycles = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t pim_ops = 0;
    PicoJoule energy = 0;
    /// mem::fold_completion over the completion stream in canonical
    /// mailbox order — byte-identity across shard widths in one number.
    std::uint64_t checksum = 0;
  };

  /// Drains `ops_per_vault` accesses per vault of mem::hashed_source (one
  /// agent per vault, every fourth op a write) plus one in-vault PUM row
  /// copy per 16 ops (RowClone-style bulk data movement on the
  /// logic-layer path), open-loop on `shards` epoch-barrier shard workers
  /// (0 acts as 1); the result is identical at any width. The streams are
  /// deterministic functions of (seed, vault, index) in the
  /// irregular-traversal shape of the graph workloads. The cores, NoC and
  /// host link of the closed loop play no part. Throws std::runtime_error
  /// when the streams do not drain within the run's cycle limit.
  StreamResult run_stream(std::uint64_t ops_per_vault, std::uint64_t seed, unsigned shards);

  const PnmConfig& config() const { return cfg_; }

  /// Lifetime accounting accumulated across run_pnm()/run_host() calls
  /// (each run builds a fresh memory system, so the stack keeps the running
  /// sums).
  struct Stats {
    std::uint64_t runs_pnm = 0;
    std::uint64_t runs_host = 0;
    std::uint64_t instructions = 0;
    std::uint64_t local_accesses = 0;
    std::uint64_t remote_accesses = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Dispatch/completion events for each run land in `sink` (null detaches).
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

 private:
  /// The stack's memory system geometry: one channel per vault.
  dram::DramConfig stack_dram() const;

  /// One trace entry as a run issues it, translated once per run: the
  /// access's vault and its address in the stack's memory system (its
  /// vault-local coordinate, moved to the vault's channel). 16 bytes, so a
  /// run's per-core lists stay smaller than the traces they come from.
  struct Issue {
    Addr addr = 0;
    std::uint32_t compute = 0;
    std::uint32_t vault : 31 = 0;
    std::uint32_t write : 1 = 0;
  };
  static_assert(sizeof(Issue) <= sizeof(PnmAccess));
  /// Throws std::invalid_argument for an address at or beyond total_bytes().
  Issue translate(const PnmAccess& a) const;

  // Each run builds a fresh memory system so successive runs are
  // independent. Runs `per_core[i]` on core i: near memory core i is vault
  // i's logic-layer core, from the host it is a host core.
  RunResult run_traces(const std::vector<std::vector<Issue>>& per_core, bool near_memory,
                       Cycle max_cycles);

  PnmConfig cfg_;
  dram::AddressMapper vault_map_;  // one vault's address layout
  dram::AddressMapper stack_map_;  // the stack's memory system's layout
  Stats stats_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace ima::pnm
