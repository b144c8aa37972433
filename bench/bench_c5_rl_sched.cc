// C5 — Self-optimizing (RL) memory controller: an online Q-learning
// scheduler matches or beats fixed heuristics across workload mixes
// (Ipek et al., ISCA 2008 [39] report ~15-20% over FR-FCFS).
//
// Controller-level harness: four heterogeneous cores keep several requests
// in flight each (OoO-window MLP), so the request queue is deep enough for
// policy to matter. Metric: data bursts served per kilocycle (bus
// utilization — the same objective the RL reward encodes).
#include "bench/bench_util.hh"
#include "bench/mc_harness.hh"

using namespace ima;

namespace {

dram::DramConfig bench_dram() {
  auto cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.channels = 1;
  return cfg;
}

}  // namespace

int main() {
  bench::print_header(
      "C5: RL self-optimizing memory controller",
      "Claim: a data-driven (Q-learning) scheduler adapts online and matches or "
      "beats fixed human-designed policies; Ipek+ report ~15-20% over FR-FCFS [39].");

  const auto dram_cfg = bench_dram();
  mem::ControllerConfig ctrl;
  const Cycle kCycles = 600'000;

  Table t({"scheduler", "served/kcycle", "min-core served/kcycle", "vs FR-FCFS"});
  double frfcfs = 0;
  for (auto kind : {mem::SchedKind::Fcfs, mem::SchedKind::FrFcfs, mem::SchedKind::FrFcfsCap,
                    mem::SchedKind::ParBs, mem::SchedKind::Atlas, mem::SchedKind::Tcm,
                    mem::SchedKind::Bliss, mem::SchedKind::Rl}) {
    const auto r = bench::run_mc(dram_cfg, ctrl, mem::make_scheduler(kind, 4, 11),
                                 bench::hetero_mix(7), kCycles);
    if (kind == mem::SchedKind::FrFcfs) frfcfs = r.total_served_per_kcycle;
    t.add_row({mem::to_string(kind), Table::fmt(r.total_served_per_kcycle, 2),
               Table::fmt(r.min_core_throughput(), 2),
               frfcfs > 0 ? Table::fmt_pct(r.total_served_per_kcycle / frfcfs - 1.0) : "-"});
  }
  bench::print_table(t);

  std::cout << "\nRL learning curve (throughput measured per training window)\n\n";
  Table lc({"window (kcycles)", "served/kcycle"});
  {
    // One long run on one system, reporting each window's throughput:
    // the agent's policy should improve across windows.
    auto rl_ctrl = ctrl;
    rl_ctrl.num_cores = 4;
    mem::MemorySystem sys(dram_cfg, rl_ctrl);
    sys.controller(0).set_scheduler(mem::make_rl(4, 11, 0.1, 0.05));
    sim::ClosedLoop loop(bench::hetero_mix(7));
    Cycle prev_horizon = 0;
    std::uint64_t prev_served = 0;
    for (Cycle horizon : {100'000ull, 200'000ull, 400'000ull, 800'000ull}) {
      loop.run(sys, prev_horizon, horizon);
      const std::uint64_t served = loop.total_served();
      lc.add_row({Table::fmt(horizon / 1000.0, 0),
                  Table::fmt(1000.0 * static_cast<double>(served - prev_served) /
                                 static_cast<double>(horizon - prev_horizon),
                             2)});
      prev_served = served;
      prev_horizon = horizon;
    }
  }
  bench::print_table(lc);

  std::cout << "\nAblation: RL hyperparameters (600 kcycles)\n\n";
  Table ab({"alpha", "epsilon", "served/kcycle"});
  for (double alpha : {0.02, 0.1, 0.3}) {
    for (double eps : {0.0, 0.05, 0.2}) {
      const auto r = bench::run_mc(dram_cfg, ctrl, mem::make_rl(4, 11, alpha, eps),
                                   bench::hetero_mix(7), kCycles);
      ab.add_row({Table::fmt(alpha, 2), Table::fmt(eps, 2),
                  Table::fmt(r.total_served_per_kcycle, 2)});
    }
  }
  bench::print_table(ab);

  std::cout << "\nGeneralization: one policy per column, three different mixes\n\n";
  Table gen({"mix", "FR-FCFS", "ATLAS", "RL"});
  for (std::uint64_t mix_seed : {7ull, 101ull, 777ull}) {
    auto row = std::vector<std::string>{"mix-" + std::to_string(mix_seed)};
    for (auto kind : {mem::SchedKind::FrFcfs, mem::SchedKind::Atlas, mem::SchedKind::Rl}) {
      const auto r = bench::run_mc(dram_cfg, ctrl, mem::make_scheduler(kind, 4, 11),
                                   bench::hetero_mix(mix_seed), kCycles);
      row.push_back(Table::fmt(r.total_served_per_kcycle, 2));
    }
    gen.add_row(row);
  }
  bench::print_table(gen);

  bench::print_shape(
      "the RL scheduler converges, without any human-designed policy, to within "
      "~2% of the best fixed heuristic for this mix (FR-FCFS) and clearly above the "
      "fairness-oriented policies on raw throughput; fairness policies (ATLAS/TCM) "
      "trade 15-30% throughput for min-core service; hyperparameters shift the "
      "result by several percent (see EXPERIMENTS.md for the deviation note vs "
      "Ipek et al.'s +15-20%, which relies on command-level actions)");
  return 0;
}
