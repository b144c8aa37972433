#include "pnm/offload.hh"

#include <algorithm>

namespace ima::pnm {

const char* to_string(Placement p) { return p == Placement::Host ? "host" : "pnm"; }

double estimate_cycles(const BlockProfile& profile, const OffloadModelParams& params,
                       Placement placement) {
  const double accesses = static_cast<double>(profile.memory_accesses);
  if (placement == Placement::Host) {
    const double compute = static_cast<double>(profile.compute_instrs) / params.host_agg_ipc;
    // Only cache misses cross the bandwidth-limited package link.
    const double mem =
        accesses * (1.0 - profile.reuse_fraction) * params.host_link_cycles_per_line;
    return std::max(compute, mem);
  }
  const double compute = static_cast<double>(profile.compute_instrs) / params.pnm_agg_ipc;
  const double mem =
      accesses * (params.pnm_cycles_per_line +
                  (1.0 - profile.local_fraction) * params.pnm_remote_extra);
  return std::max(compute, mem);
}

Placement decide_offload(const BlockProfile& profile, const OffloadModelParams& params) {
  const double host = estimate_cycles(profile, params, Placement::Host);
  const double pnm = estimate_cycles(profile, params, Placement::Pnm);
  return pnm < host ? Placement::Pnm : Placement::Host;
}

}  // namespace ima::pnm
