// Offload decision (TOM-style, Hsieh et al., ISCA 2016 [19]).
//
// Not every kernel wins near memory: compute-heavy or cache-friendly code
// should stay on the big host cores. TOM decides per code block from a
// simple cost model comparing off-package traffic saved against the
// compute-capability gap. The model here is throughput-style: execution
// time ~ max(compute time, memory time) for each placement, with reuse
// discounting host traffic (cache hits never cross the link) and PNM
// paying a premium for vault-remote lines.
#pragma once

#include <cstdint>

#include "pnm/stack.hh"

namespace ima::pnm {

/// Static features of a candidate offload block.
struct BlockProfile {
  std::uint64_t memory_accesses = 0;   // line-granularity touches
  std::uint64_t compute_instrs = 0;
  double reuse_fraction = 0.0;         // fraction of accesses served by host caches
  double local_fraction = 1.0;         // fraction landing in the executing vault
};

struct OffloadModelParams {
  double host_agg_ipc = 16.0;            // host cores x width
  double pnm_agg_ipc = 8.0;              // vaults x width
  double host_link_cycles_per_line = 3.0;  // off-package pin bandwidth
  double pnm_cycles_per_line = 0.75;       // aggregate internal vault bandwidth
  double pnm_remote_extra = 0.5;           // extra cost for vault-remote lines

  /// Calibrates aggregate capabilities from a stack configuration.
  static OffloadModelParams from(const PnmConfig& cfg, std::uint32_t host_cores) {
    OffloadModelParams p;
    p.host_agg_ipc = static_cast<double>(host_cores) * cfg.host_core_width;
    p.pnm_agg_ipc = static_cast<double>(cfg.vaults) * cfg.core_width;
    p.host_link_cycles_per_line = static_cast<double>(cfg.host_link_cycles_per_line);
    // Internal: roughly one line per tCCD per vault, aggregated.
    p.pnm_cycles_per_line =
        static_cast<double>(cfg.vault_dram.timings.ccd) / cfg.vaults;
    p.pnm_remote_extra = static_cast<double>(cfg.remote_hop_latency) / cfg.vaults;
    return p;
  }
};

enum class Placement : std::uint8_t { Host, Pnm };

const char* to_string(Placement p);

/// Estimated execution cycles for a placement (throughput model).
double estimate_cycles(const BlockProfile& profile, const OffloadModelParams& params,
                       Placement placement);

/// Cost-model decision: pick the placement with the lower estimate.
Placement decide_offload(const BlockProfile& profile, const OffloadModelParams& params);

}  // namespace ima::pnm
