// pnm_graph: a 16-vault PnmStack runs PageRank and BFS on a power-law
// graph, each kernel both near memory (run_pnm) and from four host cores
// over the off-package link (run_host). It is the one workload on the
// stack's private per-cycle loop, and it drives that layer two ways —
// vault-local traffic and link-serialized traffic — so a change that
// speeds one path at the other's cost shows here. Graph and trace
// generation are its set-up.
#include "bench.hh"
#include "pnm/kernels.hh"
#include "pnm/stack.hh"

namespace perfbench {

using namespace ima;

Rep run_pnm_graph(const Params& p, bool trace) {
  Rep rep;
  Layers* const L = trace ? &rep.layers : nullptr;
  const auto setup_t0 = Clock::now();
  pnm::PnmConfig cfg;  // C4's stack geometry
  cfg.vaults = 16;
  cfg.vault_dram.geometry.banks = 8;
  cfg.vault_dram.geometry.subarrays = 8;
  cfg.vault_dram.geometry.rows_per_subarray = 256;
  cfg.vault_dram.geometry.columns = 32;
  const std::uint32_t vertices = p.small ? 1'000 : 4'000;
  const std::uint32_t host_cores = 4;

  // The seed moves edges, never their number, so the work stays fixed.
  std::vector<pnm::KernelTraces> kernels;
  timed(L ? &L->graph_gen : nullptr, [&] {
    const auto g = workloads::make_powerlaw_graph(vertices, 8.0, 0.8, p.seed);
    const pnm::GraphLayout layout{cfg.vaults, cfg.vault_dram.geometry.total_bytes(),
                                  g.num_vertices};
    kernels.push_back(pnm::pagerank_kernel(g, 1, layout));
    kernels.push_back(pnm::bfs_kernel(g, 0, layout));
  });
  pnm::PnmStack stack(cfg);
  rep.setup_s = seconds_since(setup_t0);

  const auto t0 = Clock::now();
  for (const auto& k : kernels) {
    const auto near = timed(L ? &L->run_pnm : nullptr, [&] { return stack.run_pnm(k.traces); });
    const auto host =
        timed(L ? &L->run_host : nullptr, [&] { return stack.run_host(k.traces, host_cores); });
    rep.check(near.instructions == host.instructions,
              "pnm_graph: host and PNM runs retired different instruction counts");
    rep.sim_cycles += near.cycles + host.cycles;
    rep.sim_energy_uj += (near.energy + host.energy) / 1e6;
    rep.ops += near.instructions + host.instructions;
  }
  rep.wall_s = seconds_since(t0);

  if (L) {
    const auto& st = stack.stats();
    L->covered_s = L->run_pnm.seconds + L->run_host.seconds;
    L->pnm_instructions = st.instructions;
    L->pnm_local = st.local_accesses;
    L->pnm_remote = st.remote_accesses;
  }
  return rep;
}

}  // namespace perfbench
