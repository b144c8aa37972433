// Controller-level multi-core harness for the scheduler experiments (C5,
// C10, C20): sim::ClosedLoop MLP-window injectors on one memory system.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "mem/memsys.hh"
#include "sim/closed_loop.hh"
#include "workloads/stream.hh"

namespace ima::bench {

struct McResult {
  std::vector<double> served_per_kcycle;  // per core
  double total_served_per_kcycle = 0;

  double min_core_throughput() const {
    double m = 1e300;
    for (double v : served_per_kcycle) m = std::min(m, v);
    return m;
  }
};

inline McResult run_mc(const dram::DramConfig& dram_cfg, mem::ControllerConfig ctrl_cfg,
                       std::unique_ptr<mem::Scheduler> sched,
                       std::vector<sim::Injector> cores, Cycle cycles) {
  ctrl_cfg.num_cores = static_cast<std::uint32_t>(cores.size());
  mem::MemorySystem sys(dram_cfg, ctrl_cfg);
  if (sched) sys.controller(0).set_scheduler(std::move(sched));
  sim::ClosedLoop loop(std::move(cores));
  loop.run(sys, 0, cycles);

  McResult res;
  for (const auto& in : loop.injectors()) {
    res.served_per_kcycle.push_back(1000.0 * static_cast<double>(in.served) /
                                    static_cast<double>(cycles));
    res.total_served_per_kcycle += res.served_per_kcycle.back();
  }
  return res;
}

/// The canonical heterogeneous 4-core mix used by C5/C10. Demand intensity
/// is deliberately asymmetric — a deep-window streaming hog vs
/// shallow-window latency-sensitive cores — because that is the regime
/// where scheduling policy separates (cf. PAR-BS/TCM evaluations).
inline std::vector<sim::Injector> hetero_mix(std::uint64_t seed) {
  std::vector<sim::Injector> v;
  workloads::StreamParams p;
  p.footprint = 48ull << 20;
  p.seed = seed;
  v.push_back({workloads::make_streaming(p), /*mlp=*/16});  // bandwidth hog
  workloads::StreamParams q = p;
  q.base = 1ull << 30;
  q.seed = seed + 1;
  v.push_back({workloads::make_random(q), /*mlp=*/2});      // latency-sensitive
  workloads::StreamParams r = p;
  r.base = 2ull << 30;
  r.seed = seed + 2;
  v.push_back({workloads::make_row_local(r, 24, 8192), /*mlp=*/8});
  workloads::StreamParams z = p;
  z.base = 3ull << 30;
  z.seed = seed + 3;
  v.push_back({workloads::make_zipf(z, 0.9), /*mlp=*/4});
  return v;
}

/// One stream of the hetero mix, alone (for fairness baselines).
inline std::vector<sim::Injector> hetero_single(std::uint64_t seed, int which) {
  auto all = hetero_mix(seed);
  std::vector<sim::Injector> one;
  one.push_back(std::move(all[static_cast<std::size_t>(which)]));
  return one;
}

}  // namespace ima::bench
