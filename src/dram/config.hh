// DRAM organization, timing, and energy parameters.
//
// The model follows the Ramulator convention: geometry is a hierarchy of
// channel -> rank -> bank -> subarray -> row -> column, timings are expressed
// in controller clock cycles (tCK), and energy is attributed per command
// (DRAMPower-style) plus a background standby term per rank-cycle.
//
// PIM extensions (RowClone FPM, LISA row-buffer movement, Ambit AAP) carry
// their own timing/energy entries so that processing-using-memory costs are
// modeled at the same command granularity as regular accesses.
#pragma once

#include <cstdint>
#include <string>

#include "common/bits.hh"
#include "common/types.hh"

namespace ima::dram {

/// Physical organization of one memory system.
struct Geometry {
  std::uint32_t channels = 1;
  std::uint32_t ranks = 1;
  std::uint32_t banks = 8;             // per rank
  std::uint32_t subarrays = 16;        // per bank
  std::uint32_t rows_per_subarray = 512;
  std::uint32_t columns = 128;         // cache lines per row

  std::uint32_t rows_per_bank() const { return subarrays * rows_per_subarray; }
  std::uint64_t row_bytes() const { return static_cast<std::uint64_t>(columns) * kLineBytes; }
  std::uint64_t bank_bytes() const { return row_bytes() * rows_per_bank(); }
  std::uint64_t rank_bytes() const { return bank_bytes() * banks; }
  std::uint64_t channel_bytes() const { return rank_bytes() * ranks; }
  std::uint64_t total_bytes() const { return channel_bytes() * channels; }

  std::uint32_t subarray_of_row(std::uint32_t row) const { return row / rows_per_subarray; }

  /// All dimensions must be powers of two for bit-sliced address mapping.
  bool valid() const {
    return is_pow2(channels) && is_pow2(ranks) && is_pow2(banks) && is_pow2(subarrays) &&
           is_pow2(rows_per_subarray) && is_pow2(columns);
  }
};

/// Timing constraints in controller cycles. Names follow JEDEC DDR4.
struct Timings {
  double tck_ns = 0.833;   // DDR4-2400

  std::uint32_t rcd = 16;  // ACT -> RD/WR, same bank
  std::uint32_t rp = 16;   // PRE -> ACT, same bank
  std::uint32_t ras = 39;  // ACT -> PRE, same bank
  std::uint32_t rc = 55;   // ACT -> ACT, same bank
  std::uint32_t cl = 16;   // RD -> data
  std::uint32_t cwl = 12;  // WR -> data
  std::uint32_t bl = 4;    // burst length on bus (BL8 / 2)
  std::uint32_t ccd = 6;   // RD->RD / WR->WR, same channel
  std::uint32_t rrd = 6;   // ACT -> ACT, same rank
  std::uint32_t faw = 26;  // four-activate window, same rank
  std::uint32_t wr = 18;   // end of write burst -> PRE
  std::uint32_t wtr = 9;   // end of write burst -> RD
  std::uint32_t rtp = 9;   // RD -> PRE
  std::uint32_t rtw = 8;   // RD issue -> WR issue gap on bus (CL - CWL + BL + 2)
  std::uint32_t rfc = 420; // REF -> anything, same rank
  std::uint32_t refi = 9360;  // average REF interval (7.8us @ 0.833ns)

  // --- PIM extensions ---
  std::uint32_t rc_fpm = 74;   // RowClone FPM / Ambit AAP: ACT->ACT->PRE ~ tRAS+tRP+~20
  std::uint32_t lisa_hop = 12; // LISA row-buffer movement per subarray hop
  std::uint32_t tra = 49;      // Ambit triple-row activation (ACT of 3 rows + settle)

  // --- charged-row activation (ChargeCache, Hassan et al. HPCA 2016) ---
  // Rows precharged very recently still hold most of their charge, so
  // sensing completes early: reduced tRCD/tRAS for such activations.
  std::uint32_t rcd_charged = 10;  // ~0.65x nominal
  std::uint32_t ras_charged = 30;  // ~0.77x nominal

  // --- low-power states (MemScale/power-management line [127,132]) ---
  std::uint32_t xp = 10;    // power-down exit -> first command
  std::uint32_t xs = 512;   // self-refresh exit -> first command

  // --- SALP (Kim et al., ISCA 2012 [86]) ---
  // Subarray-level parallelism: each subarray keeps its own row buffer, so
  // rows in *different* subarrays of a bank can be open simultaneously and
  // activations to different subarrays need only the inter-ACT spacing
  // (tRRD/tFAW), not a precharge of the whole bank.
  bool salp = false;

  Cycle read_latency() const { return cl + bl; }
  double ns(Cycle cycles) const { return static_cast<double>(cycles) * tck_ns; }
};

/// Per-command energy (pJ) plus background power, loosely calibrated to
/// DDR4 x8 devices (DRAMPower ballpark). Absolute values matter less than
/// the ratios between full-row PIM operations and line-granularity transfers.
struct Energy {
  PicoJoule act = 1000.0;       // one row activation (full 8KB row)
  PicoJoule pre = 500.0;        // one precharge
  PicoJoule rd = 1200.0;        // one 64B read burst incl. I/O
  PicoJoule wr = 1300.0;        // one 64B write burst incl. I/O
  PicoJoule ref = 28000.0;      // one all-bank refresh command (per rank)
  PicoJoule ref_row = 1500.0;   // one row-granularity refresh (ACT+PRE)
  PicoJoule aap = 2500.0;       // RowClone FPM / Ambit AAP (two ACTs + PRE)
  PicoJoule tra = 3500.0;       // Ambit triple-row activation
  PicoJoule lisa_hop = 600.0;   // LISA inter-subarray hop for a full row
  PicoJoule standby_per_cycle = 66.0;  // background, per rank per cycle

  /// Off-chip transfer energy for one 64B line over the channel; dominates
  /// the "data movement" cost the paper highlights.
  PicoJoule bus_per_line = 2600.0;

  /// Background-power scale factors for the low-power rank states.
  double powerdown_scale = 0.35;
  double selfrefresh_scale = 0.12;
};

/// Bundle of the three parameter groups, with named presets.
struct DramConfig {
  std::string name = "DDR4_2400";
  Geometry geometry;
  Timings timings;
  Energy energy;

  static DramConfig ddr4_2400();
  static DramConfig ddr4_3200();
  static DramConfig lpddr4_3200();
  /// One channel of an HBM/HMC-like 3D stack: narrower rows, more banks,
  /// much higher internal bandwidth (used by the PNM vault model).
  static DramConfig hbm_stack_channel();

  /// AL-DRAM-style timing scaling (Lee et al., HPCA 2015 [13]): most
  /// devices at common-case temperature tolerate shorter tRCD/tRAS/tRP/tWR
  /// than the worst-case datasheet values. Returns a copy with the core
  /// access timings scaled by `factor` (e.g. 0.85).
  DramConfig with_scaled_timings(double factor) const;
};

}  // namespace ima::dram
