// Vault fabric: one huge PNM stack as a single sharded MemorySystem.
//
// PnmStack (stack.hh) models a modest stack faithfully — per-vault cores,
// NoC hops, host link — as one closed loop on the event kernel whose cores
// and vaults interleave every cycle, so it cannot be split across host
// threads without changing that interleaving. The fabric is the
// scale-out complement: vault = channel inside ONE MemorySystem (HBM-like
// per-vault timing), driven open-loop by per-vault offload streams through
// MemorySystem::drain_sourced. That puts 64–256 vaults on the epoch-barrier
// shard engine, so a fabric run is byte-identical at any IMA_SHARDS width
// (tests/shard_test.cc) and scales across host threads for the big bench
// points (bench_c4_pnm_graph).
//
// The streams are deterministic functions of (vault, index, seed) in the
// irregular-traversal shape of the graph workloads: mostly-local reads with
// a configurable write fraction, plus optional in-vault PUM row copies
// (RowClone-style bulk data movement on the logic-layer path).
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hh"
#include "dram/config.hh"
#include "mem/memsys.hh"

namespace ima::pnm {

struct FabricConfig {
  std::uint32_t vaults = 64;  // channel count of the fabric memory system
  dram::DramConfig vault_dram = dram::DramConfig::hbm_stack_channel();
  mem::ControllerConfig ctrl;
  unsigned shards = 1;  // epoch-barrier plan width; results identical at any
  Cycle epoch = 0;      // 0 = sim::default_shard_epoch()
};

class VaultFabric {
 public:
  explicit VaultFabric(const FabricConfig& cfg);

  struct RunResult {
    Cycle cycles = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t pim_ops = 0;
    PicoJoule energy = 0;
    /// Order-sensitive digest of the completion stream (addr, complete) in
    /// canonical mailbox order — byte-identity across shard widths in one
    /// number.
    std::uint64_t checksum = 0;
  };

  /// Drains `ops_per_vault` accesses per vault (every `write_every`-th is a
  /// write; 0 = all reads) plus one in-vault row copy per `pim_every` ops
  /// (0 = none). Deterministic in (seed, vault, index) only.
  RunResult run_stream(std::uint64_t ops_per_vault, std::uint64_t write_every = 4,
                       std::uint64_t pim_every = 0, std::uint64_t seed = 1,
                       Cycle deadline = 2'000'000'000);

  mem::MemorySystem& mem() { return *mem_; }
  std::uint32_t vaults() const { return cfg_.vaults; }
  const FabricConfig& config() const { return cfg_; }

 private:
  FabricConfig cfg_;
  std::unique_ptr<mem::MemorySystem> mem_;
  Cycle now_ = 0;  // end cycle of the last run (time stays monotone)
};

}  // namespace ima::pnm
