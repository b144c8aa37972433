// C20 (extension) — MISE slowdown estimation (Subramanian et al., HPCA
// 2013 [117]): estimate each application's alone performance *while it
// runs shared*, by sampling it at highest priority — the observability
// layer that predictable-performance memory systems are built on.
//
// Estimated vs ground-truth slowdowns (each app actually re-run alone).
#include "bench/bench_util.hh"
#include "bench/mc_harness.hh"

using namespace ima;

int main() {
  bench::print_header(
      "C20 (ext): MISE online slowdown estimation",
      "Claim: an application's request service rate during brief highest-priority "
      "windows approximates its alone service rate, making slowdown observable "
      "online (MISE reports ~8-10% average error) [117].");

  const auto dram_cfg = dram::DramConfig::ddr4_2400();
  mem::ControllerConfig ctrl;
  // Per-core MSHR-style quotas: without them one heavy core crowds the
  // shared queue and no sampling scheme can observe anyone's alone rate.
  ctrl.per_core_read_quota = 16;
  const Cycle kCycles = 600'000;

  // Ground truth: alone service rates.
  std::vector<double> alone;
  for (int i = 0; i < 4; ++i) {
    const auto r = bench::run_mc(dram_cfg, ctrl, nullptr, bench::hetero_single(51, i), kCycles);
    alone.push_back(r.served_per_kcycle[0]);
  }

  // Shared run under the MISE scheduler.
  mem::MemorySystem sys(dram_cfg, ctrl);
  auto mise = mem::make_mise(4);
  const mem::Scheduler* mise_view = mise.get();
  sys.controller(0).set_scheduler(std::move(mise));

  sim::ClosedLoop loop(bench::hetero_mix(51));
  loop.run(sys, 0, kCycles);

  const auto est = mem::mise_estimated_slowdowns(*mise_view);
  const char* names[] = {"streaming (mlp16)", "random (mlp2)", "row-local (mlp8)",
                         "zipf (mlp4)"};
  Table t({"app", "actual slowdown", "MISE estimate", "error"});
  double err_sum = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double shared_rate =
        1000.0 * static_cast<double>(loop.injectors()[i].served) / static_cast<double>(kCycles);
    const double actual = alone[i] / shared_rate;
    const double error = std::abs(est[i] - actual) / actual;
    err_sum += error;
    t.add_row({names[i], Table::fmt_ratio(actual), Table::fmt_ratio(est[i]),
               Table::fmt_pct(error)});
  }
  t.add_row({"MEAN", "-", "-", Table::fmt_pct(err_sum / 4)});
  bench::print_table(t);

  bench::print_shape(
      "estimates track ground truth within ~1-10% per app (~6% mean), matching "
      "MISE's published ~8% average error: slowdown becomes observable online, "
      "without ever running anything alone — the foundation for QoS policies");
  return 0;
}
