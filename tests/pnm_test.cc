// Processing-near-memory tests: stack execution model, kernel generators,
// PNM-vs-host comparisons, offload cost model.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "pnm/kernels.hh"
#include "pnm/offload.hh"
#include "pnm/stack.hh"

namespace ima::pnm {
namespace {

PnmConfig small_stack() {
  PnmConfig cfg;
  cfg.vaults = 4;
  // Shrink the vault DRAM for fast tests.
  cfg.vault_dram.geometry.banks = 8;
  cfg.vault_dram.geometry.subarrays = 4;
  cfg.vault_dram.geometry.rows_per_subarray = 256;
  cfg.vault_dram.geometry.columns = 32;
  return cfg;
}

VaultTrace sequential_trace(std::uint64_t n, Addr base, std::uint32_t compute) {
  VaultTrace t;
  for (std::uint64_t i = 0; i < n; ++i)
    t.push_back({compute, base + i * kLineBytes, AccessType::Read});
  return t;
}

TEST(Stack, GeometryHelpers) {
  PnmStack stack(small_stack());
  EXPECT_EQ(stack.vault_of(0), 0u);
  EXPECT_EQ(stack.vault_of(stack.vault_bytes()), 1u);
  EXPECT_EQ(stack.local_addr(stack.vault_bytes() + 64), 64u);
  EXPECT_EQ(stack.total_bytes(), stack.vault_bytes() * 4);
}

TEST(Stack, PnmRunCompletesAllWork) {
  PnmStack stack(small_stack());
  std::vector<VaultTrace> traces(4);
  for (std::uint32_t v = 0; v < 4; ++v)
    traces[v] = sequential_trace(200, static_cast<Addr>(v) * stack.vault_bytes(), 2);
  const auto res = stack.run_pnm(traces);
  EXPECT_GT(res.cycles, 0u);
  EXPECT_EQ(res.local_accesses, 4u * 200u);
  EXPECT_EQ(res.remote_accesses, 0u);
  // compute (2 per access) + 1 access instruction each.
  EXPECT_EQ(res.instructions, 4u * 200u * 3u);
  EXPECT_GT(res.energy, 0.0);
}

TEST(Stack, HostRunPaysLinkLatency) {
  PnmStack stack(small_stack());
  std::vector<VaultTrace> traces(4);
  for (std::uint32_t v = 0; v < 4; ++v)
    traces[v] = sequential_trace(200, static_cast<Addr>(v) * stack.vault_bytes(), 2);
  const auto pnm = stack.run_pnm(traces);
  const auto host = stack.run_host(traces, 4);
  EXPECT_GT(host.cycles, pnm.cycles);  // link latency on every access
  EXPECT_GT(host.energy, pnm.energy);  // SerDes energy on every line
}

TEST(Stack, RemoteAccessesCostMore) {
  PnmStack stack(small_stack());
  const auto local = stack.run_pnm(
      {sequential_trace(300, 0, 1), {}, {}, {}});
  // Same accesses, but issued from vault 1's core (all remote).
  std::vector<VaultTrace> remote_traces(4);
  remote_traces[1] = sequential_trace(300, 0, 1);
  const auto remote = stack.run_pnm(remote_traces);
  EXPECT_GT(remote.cycles, local.cycles);
  EXPECT_EQ(remote.remote_accesses, 300u);
  EXPECT_EQ(local.local_accesses, 300u);
}

// Compute bursts, local and remote reads and posted writes; with `hot`,
// every access goes to vault 0 and half are writes, so its queues fill.
std::vector<VaultTrace> mixed_traces(const PnmStack& stack, bool hot) {
  std::vector<VaultTrace> traces(4);
  for (std::uint32_t v = 0; v < 4; ++v) {
    for (std::uint32_t i = 0; i < 160; ++i) {
      const std::uint32_t target = hot ? 0 : i % 4 == 0 ? (v + 1) % 4 : v;
      const bool write = hot ? i % 2 == 0 : i % 5 == 0;
      traces[v].push_back({hot ? 0 : i % 3,
                           target * stack.vault_bytes() + (i * 7 % 512 + v) * kLineBytes,
                           write ? AccessType::Write : AccessType::Read});
    }
  }
  return traces;
}

void expect_result(const PnmStack::RunResult& r, Cycle cycles, std::uint64_t instructions,
                   std::uint64_t local, std::uint64_t remote, double energy) {
  EXPECT_EQ(r.cycles, cycles);
  EXPECT_EQ(r.instructions, instructions);
  EXPECT_EQ(r.local_accesses, local);
  EXPECT_EQ(r.remote_accesses, remote);
  EXPECT_DOUBLE_EQ(r.energy, energy);
}

// Exact results of the stack's cycle model, compute bursts, full miss
// windows, full vault queues and a saturated host link included. ctest
// runs this binary a second time under IMA_CLOCK=percycle, which ticks
// every vault every cycle, against the same numbers.
TEST(Stack, PinnedRunResults) {
  PnmStack stack(small_stack());
  const auto traces = mixed_traces(stack, false);
  expect_result(stack.run_pnm(traces), 1474, 1276, 480, 160, 934030);
  expect_result(stack.run_host(traces, 3), 2283, 1276, 0, 640, 2541790);
  expect_result(stack.run_pnm(mixed_traces(stack, true)), 2112, 640, 160, 480, 949220);
}

// Cores with nothing to do and compute bursts longer than a core's width:
// vaults 1 and 3 get empty traces (their cores are idle from cycle 0, while
// their memory still serves remote accesses), bursts of 9 exceed both the
// PNM width (1) and the host width (4), and run_host deals the 100 entries
// to 3 cores, which 3 does not divide. Recorded with every core stepped at
// every visited cycle.
TEST(Stack, IdleCoresAndLongBursts) {
  PnmStack stack(small_stack());
  std::vector<VaultTrace> traces(4);
  for (std::uint32_t v : {0u, 2u}) {
    for (std::uint32_t i = 0; i < 50; ++i) {
      const std::uint32_t target = i % 3 == 0 ? v + 1 : v;
      traces[v].push_back({i % 4 == 0 ? 9u : i % 7,
                           target * stack.vault_bytes() + (i * 13 % 256) * kLineBytes,
                           i % 6 == 5 ? AccessType::Write : AccessType::Read});
    }
  }
  expect_result(stack.run_pnm(traces), 459, 550, 66, 34, 217240);
  expect_result(stack.run_host(traces, 3), 403, 550, 0, 100, 493400);
}

// A 2-entry read queue and a 4-entry write queue (drain marks 3 and 1) on
// every vault, under a random mix of reads and writes: the write-drain
// hysteresis flips between vault events, and its flag depends on the
// occupancies the controller's ticks saw, the ticks that only retire a
// completion included. Recorded with every controller tick taking the full
// path.
TEST(Stack, WriteDrainFlipsBetweenVaultEvents) {
  PnmConfig cfg = small_stack();
  cfg.ctrl.read_queue_size = 2;
  cfg.ctrl.write_queue_size = 4;
  cfg.ctrl.write_drain_high = 3;
  cfg.ctrl.write_drain_low = 1;
  PnmStack stack(cfg);
  Rng rng(146);
  std::vector<VaultTrace> traces(4);
  const std::uint32_t n = 20 + static_cast<std::uint32_t>(rng.next_below(60));
  for (std::uint32_t v = 0; v < 4; ++v) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto compute = static_cast<std::uint32_t>(rng.next_below(4));
      const Addr vault = rng.next_below(4);
      const Addr line = rng.next_below(512);
      const bool write = rng.next_below(2) != 0;
      traces[v].push_back({compute, vault * stack.vault_bytes() + line * kLineBytes,
                           write ? AccessType::Write : AccessType::Read});
    }
  }
  expect_result(stack.run_pnm(traces), 447, 245, 24, 72, 208740);
  expect_result(stack.run_host(traces, 3), 490, 245, 0, 96, 425430);
}

TEST(StackInput, HostRunNeedsACore) {
  PnmStack stack(small_stack());
  EXPECT_THROW(stack.run_host(mixed_traces(stack, false), 0), std::invalid_argument);
}

TEST(StackInput, PnmRunNeedsOneTracePerVault) {
  PnmStack stack(small_stack());
  auto traces = mixed_traces(stack, false);
  traces.pop_back();
  EXPECT_THROW(stack.run_pnm(traces), std::invalid_argument);
}

TEST(StackInput, AccessBeyondTheStackThrows) {
  PnmStack stack(small_stack());
  std::vector<VaultTrace> traces(4);
  traces[2] = sequential_trace(4, stack.total_bytes() - 2 * kLineBytes, 1);
  EXPECT_THROW(stack.run_pnm(traces), std::invalid_argument);
  EXPECT_THROW(stack.run_host(traces, 2), std::invalid_argument);
  EXPECT_EQ(stack.stats().runs_pnm + stack.stats().runs_host, 0u);
}

TEST(StackInput, VaultCountMustBePowerOfTwo) {
  PnmConfig cfg = small_stack();
  for (const std::uint32_t vaults : {0u, 3u, 12u}) {
    cfg.vaults = vaults;
    EXPECT_THROW(PnmStack{cfg}, std::invalid_argument) << vaults << " vaults";
  }
  cfg.vaults = 8;
  EXPECT_NO_THROW(PnmStack{cfg});
  // A vault is one channel of the stack's memory system.
  cfg.vault_dram.geometry.channels = 2;
  EXPECT_THROW(PnmStack{cfg}, std::invalid_argument);
}

TEST(StackInput, RunPastTheCycleLimitThrows) {
  PnmStack stack(small_stack());
  const auto traces = mixed_traces(stack, false);
  const auto expect_limit_error = [](const auto& run, const std::string& limit) {
    try {
      run();
      ADD_FAILURE() << "no error at a " << limit << "-cycle limit";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(limit + "-cycle limit"), std::string::npos)
          << e.what();
    }
  };
  expect_limit_error([&] { stack.run_pnm(traces, 100); }, "100");
  expect_limit_error([&] { stack.run_host(traces, 3, 0); }, "0");
  // Stack.PinnedRunResults' run ticks its last cycle at 1474.
  expect_limit_error([&] { stack.run_pnm(traces, 1474); }, "1474");
  EXPECT_EQ(stack.stats().runs_pnm + stack.stats().runs_host, 0u);
  EXPECT_EQ(stack.run_pnm(traces, 1475).cycles, 1474u);
}

TEST(Kernels, ScanGeneratesOneAccessPerLine) {
  PnmStack stack(small_stack());
  const auto k = scan_kernel(64 * kLineBytes, 4, stack.vault_bytes(), 2);
  ASSERT_EQ(k.traces.size(), 4u);
  for (std::uint32_t v = 0; v < 4; ++v) EXPECT_EQ(k.traces[v].size(), 64u);
  EXPECT_EQ(k.work_items, 4u * 64u);
}

TEST(Kernels, GatherLocalityControlsRemoteFraction) {
  PnmStack stack(small_stack());
  auto count_remote = [&](double locality) {
    const auto k = gather_kernel(4000, locality, 4, stack.vault_bytes(), 2, 1);
    std::uint64_t remote = 0, total = 0;
    for (std::uint32_t v = 0; v < 4; ++v) {
      for (const auto& a : k.traces[v]) {
        // Only data reads (odd entries) can be remote; index reads local.
        if (stack.vault_of(a.addr) != v) ++remote;
        ++total;
      }
    }
    return static_cast<double>(remote) / static_cast<double>(total);
  };
  EXPECT_LT(count_remote(1.0), 0.01);
  EXPECT_GT(count_remote(0.0), 0.25);  // 3/4 of data reads land remote
}

TEST(Kernels, BfsTraceCoversAllEdges) {
  const auto g = workloads::make_uniform_graph(500, 4.0, 1);
  PnmStack stack(small_stack());
  GraphLayout layout{4, stack.vault_bytes(), g.num_vertices};
  const auto k = bfs_kernel(g, 0, layout);
  // Every edge reachable from the BFS tree generates work; at minimum the
  // kernel visits every edge of every reached vertex.
  const auto depth = workloads::bfs_reference(g, 0);
  std::uint64_t reachable_edges = 0;
  for (std::uint32_t v = 0; v < g.num_vertices; ++v)
    if (depth[v] >= 0) reachable_edges += g.out_degree(v);
  EXPECT_EQ(k.work_items, reachable_edges);
  EXPECT_GT(k.total_accesses(), 0u);
}

TEST(Kernels, BfsRunsOnStackBothWays) {
  const auto g = workloads::make_uniform_graph(300, 4.0, 2);
  PnmStack stack(small_stack());
  GraphLayout layout{4, stack.vault_bytes(), g.num_vertices};
  const auto k = bfs_kernel(g, 0, layout);
  const auto pnm = stack.run_pnm(k.traces);
  const auto host = stack.run_host(k.traces, 4);
  EXPECT_GT(pnm.cycles, 0u);
  EXPECT_GT(host.cycles, 0u);
  EXPECT_GT(host.energy, pnm.energy);
}

TEST(Kernels, PagerankWorkScalesWithIterations) {
  const auto g = workloads::make_uniform_graph(200, 4.0, 3);
  PnmStack stack(small_stack());
  GraphLayout layout{4, stack.vault_bytes(), g.num_vertices};
  const auto one = pagerank_kernel(g, 1, layout);
  const auto two = pagerank_kernel(g, 2, layout);
  EXPECT_EQ(two.work_items, 2 * one.work_items);
}

TEST(Kernels, PointerChaseLocalitySweep) {
  PnmStack stack(small_stack());
  const auto local = pointer_chase_kernel(500, 1.0, 4, stack.vault_bytes(), 1);
  const auto remote = pointer_chase_kernel(500, 0.0, 4, stack.vault_bytes(), 1);
  const auto lr = stack.run_pnm(local.traces);
  const auto rr = stack.run_pnm(remote.traces);
  EXPECT_GT(rr.cycles, lr.cycles);
}

TEST(Kernels, KmerFilterFindsTrueBin) {
  const auto genome = workloads::make_genome(20'000, 10, 64, 0.0, 1);
  PnmStack stack(small_stack());
  std::vector<std::uint32_t> candidates;
  const auto k =
      kmer_filter_kernel(genome, 12, 2000, 4, stack.vault_bytes(), &candidates);
  ASSERT_EQ(candidates.size(), genome.reads.size());
  // Error-free reads must keep at least their true bin as a candidate.
  for (auto c : candidates) EXPECT_GE(c, 1u);
  EXPECT_GT(k.work_items, 0u);
}

TEST(Kernels, KmerFilterPrunesMostBins) {
  const auto genome = workloads::make_genome(50'000, 10, 64, 0.0, 2);
  PnmStack stack(small_stack());
  std::vector<std::uint32_t> candidates;
  kmer_filter_kernel(genome, 12, 2000, 4, stack.vault_bytes(), &candidates);
  const double bins = static_cast<double>(workloads::num_bins(50'000, 2000));
  double avg = 0;
  for (auto c : candidates) avg += c;
  avg /= static_cast<double>(candidates.size());
  // The GRIM property: the filter rejects the vast majority of bins.
  EXPECT_LT(avg, bins * 0.5);
}

TEST(Stack, HostLinkBandwidthBoundsThroughput) {
  // The off-package link serializes host lines: total host cycles can never
  // beat lines x link-cycles-per-line, no matter the vault parallelism.
  PnmConfig cfg = small_stack();
  PnmStack stack(cfg);
  std::vector<VaultTrace> traces(4);
  for (std::uint32_t v = 0; v < 4; ++v)
    traces[v] = sequential_trace(500, static_cast<Addr>(v) * stack.vault_bytes(), 0);
  const auto host = stack.run_host(traces, 8);
  const std::uint64_t lines = 4ull * 500ull;
  EXPECT_GE(host.cycles, lines * cfg.host_link_cycles_per_line);
  // PNM is not subject to that bound.
  const auto pnm = stack.run_pnm(traces);
  EXPECT_LT(pnm.cycles, host.cycles);
}

TEST(Stack, EnergyMonotoneInWork) {
  PnmStack stack(small_stack());
  std::vector<VaultTrace> small_w(4), big_w(4);
  for (std::uint32_t v = 0; v < 4; ++v) {
    small_w[v] = sequential_trace(100, static_cast<Addr>(v) * stack.vault_bytes(), 1);
    big_w[v] = sequential_trace(400, static_cast<Addr>(v) * stack.vault_bytes(), 1);
  }
  EXPECT_LT(stack.run_pnm(small_w).energy, stack.run_pnm(big_w).energy);
}

TEST(Offload, ExtremesDecideCorrectly) {
  OffloadModelParams params;
  // Memory-bound, no reuse: PNM.
  BlockProfile mem_bound;
  mem_bound.memory_accesses = 1'000'000;
  mem_bound.compute_instrs = 1'000'000;
  mem_bound.reuse_fraction = 0.0;
  mem_bound.local_fraction = 1.0;
  EXPECT_EQ(decide_offload(mem_bound, params), Placement::Pnm);

  // Compute-bound with cache-resident data: host.
  BlockProfile compute_bound;
  compute_bound.memory_accesses = 1000;
  compute_bound.compute_instrs = 10'000'000;
  compute_bound.reuse_fraction = 0.95;
  EXPECT_EQ(decide_offload(compute_bound, params), Placement::Host);
}

TEST(Offload, ReuseShiftsDecisionTowardHost) {
  OffloadModelParams params;
  BlockProfile p;
  p.memory_accesses = 1'000'000;
  p.compute_instrs = 2'000'000;
  p.local_fraction = 1.0;
  p.reuse_fraction = 0.0;
  const double pnm_cost = estimate_cycles(p, params, Placement::Pnm);
  p.reuse_fraction = 0.99;
  const double host_cost_high_reuse = estimate_cycles(p, params, Placement::Host);
  EXPECT_LT(host_cost_high_reuse, pnm_cost);
}

TEST(Offload, EstimatesMonotoneInAccessCount) {
  OffloadModelParams params;
  BlockProfile p;
  p.compute_instrs = 1000;
  p.memory_accesses = 1000;
  const double c1 = estimate_cycles(p, params, Placement::Pnm);
  p.memory_accesses = 2000;
  const double c2 = estimate_cycles(p, params, Placement::Pnm);
  EXPECT_GT(c2, c1);
}

}  // namespace
}  // namespace ima::pnm
