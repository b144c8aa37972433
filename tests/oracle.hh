// Equivalence harness shared by the shard, SoA and checkpoint tests.
//
// Those tests prove that two runs of one machine are byte-identical — at
// different shard widths, against pinned goldens, or across a checkpoint
// round-trip. They all drive the same traffic (mem::hashed_source over
// kCores cores) and compare the same Outcome: the simulated cycle count,
// the mem::fold_completion digest of the completion stream, and the full
// StatRegistry rendering.
#pragma once

#include <cstdint>
#include <string>

#include "dram/config.hh"
#include "mem/memsys.hh"
#include "obs/stat_registry.hh"

namespace ima::oracle {

/// Everything an equivalence check compares, rendered comparable.
struct Outcome {
  Cycle cycles = 0;
  std::uint64_t checksum = 0;  // completion stream in canonical order
  std::string snapshot;        // full StatRegistry rendering
  unsigned workers_used = 0;   // host detail — NOT compared

  bool operator==(const Outcome& o) const {
    return cycles == o.cycles && checksum == o.checksum && snapshot == o.snapshot;
  }
  /// FNV-1a over cycles, checksum and snapshot: the value goldens pin.
  std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ull;
      }
    };
    mix(cycles);
    mix(checksum);
    for (const char ch : snapshot) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// The matrix geometry: DDR4-2400 with `channels` channels of 4 banks,
/// 4 subarrays of 128 rows and 32 columns.
inline dram::DramConfig matrix_dram(std::uint32_t channels, bool salp = false) {
  auto cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.channels = channels;
  cfg.geometry.banks = 4;
  cfg.geometry.subarrays = 4;
  cfg.geometry.rows_per_subarray = 128;
  cfg.geometry.columns = 32;
  cfg.timings.salp = salp;
  return cfg;
}

/// `sys`'s statistics registered under "m", rendered.
inline std::string render(const mem::MemorySystem& sys) {
  obs::StatRegistry reg;
  sys.register_stats(reg, "m");
  return reg.snapshot().render();
}

/// Cores the hashed stream spreads its requests over (core = ch % kCores).
inline constexpr std::uint32_t kCores = 4;

/// Drains `ops` hashed requests per channel on `sys` from `from`, folding
/// the completions into `out.checksum`; returns the drain's end cycle.
inline Cycle drain_hashed(mem::MemorySystem& sys, std::uint64_t ops, std::uint64_t seed,
                          Outcome& out, Cycle from = 0) {
  return sys.drain_sourced(mem::hashed_source(sys, ops, seed, kCores, &out.checksum), from);
}

/// drain_hashed from cycle 0 into a fresh Outcome, completed with the host
/// width used and the rendered statistics.
inline Outcome run_hashed(mem::MemorySystem& sys, std::uint64_t ops, std::uint64_t seed) {
  Outcome out;
  out.cycles = drain_hashed(sys, ops, seed, out);
  out.workers_used = sys.shard_workers_used();
  out.snapshot = render(sys);
  return out;
}

}  // namespace ima::oracle
