// The benchmark's workloads. Each one does a fixed amount of simulated work
// per repetition, drawn from a seed that moves only addresses and arrival
// times, and drives the simulator through public entry points only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/memsys.hh"
#include "probe.hh"

namespace perfbench {

struct Params {
  std::uint64_t seed = 1;
  bool small = false;    // reduced size, for the self-test
  std::string workdir;   // scratch directory for checkpoint files
};

/// One repetition: set-up and timed-phase host seconds, the simulated
/// results (which must repeat exactly for a seed) and the outcome of the
/// workload's own correctness checks.
struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t sim_cycles = 0;
  double sim_energy_uj = 0;
  double sim_read_p99_cycles = 0;  // 0 where the workload's API exposes no latency
  std::uint64_t ops = 0;           // operations the timed phase attempted
  std::vector<std::string> failures;
  Layers layers;                   // filled only by a traced repetition

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Runs one repetition; `trace` turns the probes on and fills Rep::layers.
using WorkloadFn = Rep (*)(const Params&, bool trace);

Rep run_sched_rl(const Params& p, bool trace);
Rep run_pnm_graph(const Params& p, bool trace);
Rep run_system_mix(const Params& p, bool trace);
Rep run_serving_open(const Params& p, bool trace);

/// Cumulative controller counters summed over every channel of a memory
/// system; two of them bracket a phase.
struct CtrlTotals {
  std::uint64_t row_hits = 0, row_accesses = 0, span_reads = 0;
  double queue = 0, stall = 0, refresh = 0, xfer = 0;
};
CtrlTotals controller_totals(const ima::mem::MemorySystem& sys);

/// Row-hit rate and per-stage mean read waits of the phase between two
/// totals (stage means stay 0 unless the controllers record spans).
void fill_controller_layers(const CtrlTotals& before, const CtrlTotals& after, Layers& l);

}  // namespace perfbench
