// Google-benchmark microbenchmarks of the simulator itself: command issue
// rate, cache access rate, compression throughput, scheduler decision cost.
// These guard the simulator's own performance (simulation speed is a
// first-class feature of Ramulator-class tools).
#include <benchmark/benchmark.h>

#include <array>

#include "aware/compress.hh"
#include "bench/mc_harness.hh"
#include "cache/cache.hh"
#include "common/clock.hh"
#include "common/rng.hh"
#include "dram/channel.hh"
#include "mem/memsys.hh"
#include "sim/system.hh"

using namespace ima;

namespace {

void BM_ChannelIssueRate(benchmark::State& state) {
  const auto cfg = dram::DramConfig::ddr4_2400();
  dram::Channel chan(cfg, 0, nullptr);
  Cycle now = 0;
  std::uint32_t row = 0;
  for (auto _ : state) {
    dram::Coord c{0, 0, static_cast<std::uint32_t>(row % 8), (row / 8) % 1024, 0};
    Cycle t = chan.earliest(dram::Cmd::Act, c, now);
    if (t == kCycleNever) {
      t = chan.earliest(dram::Cmd::Pre, c, now);
      chan.issue(dram::Cmd::Pre, c, t);
      now = t + 1;
      continue;
    }
    chan.issue(dram::Cmd::Act, c, t);
    now = t + 1;
    ++row;
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelIssueRate);

void BM_CacheAccess(benchmark::State& state) {
  cache::CacheConfig cfg;
  cfg.size_bytes = 2 * 1024 * 1024;
  cfg.ways = 16;
  cache::Cache c(cfg);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(line_base(rng.next_below(64 << 20)), AccessType::Read));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_BdiCompress(benchmark::State& state) {
  Rng rng(2);
  std::array<std::uint64_t, 8> line;
  for (auto& w : line) w = 0x7FFF00000000ull + rng.next_below(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aware::bdi_compressed_size(aware::Line(line)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BdiCompress);

void BM_FullSystemCyclesPerSecond(benchmark::State& state) {
  sim::SystemConfig cfg;
  cfg.num_cores = 4;
  cfg.ctrl.num_cores = 4;
  cfg.core.instr_limit = 0;  // unbounded; we run fixed cycles
  std::vector<std::unique_ptr<workloads::AccessStream>> streams;
  for (int i = 0; i < 4; ++i) {
    workloads::StreamParams p;
    p.footprint = 16 << 20;
    p.seed = static_cast<std::uint64_t>(i) + 1;
    streams.push_back(workloads::make_random(p));
  }
  sim::System sys(cfg, std::move(streams));
  Cycle target = 0;
  for (auto _ : state) {
    target += 10'000;
    sys.run(target);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_FullSystemCyclesPerSecond);

// Skewed channel load, the case MemorySystem's per-channel wake cache is
// for: four channels, core 0 streaming through channel 0 alone (one line
// per channel of stride), cores 1..3 computing 200 instructions between
// random misses. The cores' events drive the visits; at most of them only
// channel 0 has an event, and the three idle controllers are skipped
// rather than ticked.
void BM_SkewedChannelsSystem(benchmark::State& state) {
  sim::SystemConfig cfg;
  cfg.num_cores = 4;
  cfg.ctrl.num_cores = 4;
  cfg.core.instr_limit = 0;  // unbounded; we run fixed cycles
  cfg.dram.geometry.channels = 4;
  std::vector<std::unique_ptr<workloads::AccessStream>> streams;
  workloads::StreamParams hot;
  hot.footprint = 16 << 20;
  hot.compute_per_access = 2;
  streams.push_back(workloads::make_streaming(hot, 4 * kLineBytes));
  for (int i = 1; i < 4; ++i) {
    workloads::StreamParams cold;
    cold.base = static_cast<Addr>(i) << 28;
    cold.footprint = 16 << 20;
    cold.compute_per_access = 200;
    cold.seed = static_cast<std::uint64_t>(i) + 1;
    streams.push_back(workloads::make_random(cold));
  }
  sim::System sys(cfg, std::move(streams));
  Cycle target = 0;
  for (auto _ : state) {
    target += 10'000;
    sys.run(target);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_SkewedChannelsSystem);

// The case the event kernel exists for: a low-MPKI core computing for
// thousands of cycles between misses. PerCycle ticks every one of those
// idle cycles; SkipAhead jumps between misses/refreshes, and the two are
// cycle-exact (tests/clock_test.cc) so the speedup is free accuracy-wise.
// The acceptance bar is skip_ahead >= 2x per_cycle in host time here.
void BM_IdleHeavyClocking(benchmark::State& state, sim::ClockMode mode) {
  sim::SystemConfig cfg;
  cfg.num_cores = 1;
  cfg.ctrl.num_cores = 1;
  cfg.core.instr_limit = 0;  // unbounded; we run fixed cycles
  cfg.clock = mode;
  std::vector<std::unique_ptr<workloads::AccessStream>> streams;
  workloads::StreamParams p;
  p.footprint = 64 << 20;
  p.compute_per_access = 5'000;  // ~kilocycle idle gaps between misses
  p.seed = 9;
  streams.push_back(workloads::make_random(p));
  sim::System sys(cfg, std::move(streams));
  Cycle target = 0;
  for (auto _ : state) {
    target += 100'000;
    sys.run(target);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100'000);
}
BENCHMARK_CAPTURE(BM_IdleHeavyClocking, per_cycle, sim::ClockMode::PerCycle);
BENCHMARK_CAPTURE(BM_IdleHeavyClocking, skip_ahead, sim::ClockMode::SkipAhead);

// Loaded-controller benchmarks: sim::ClosedLoop MLP-window injectors
// (bench::hetero_mix) keep the read+write queues saturated so host time is
// dominated by the issue loop — scheduler passes and command-legality
// queries — not by idle gaps.
//
// The anti-BM_IdleHeavyClocking: queues saturated the whole run, so the
// pre-PR controller visited every single cycle and paid O(queue) timing
// walks per scheduler pass. Runs under the default clock mode — the
// conditions every real bench runs in — measuring the combined memoized
// SchedView + busy skip-ahead + allocation-free serve()/manage_power()
// win. FR-FCFS is the common case; TCM adds ranking-heavy pick loops; RL
// picks every cycle (each pick is a learning step) and reuses its queue
// scan while the queue, the channel state and the legality deadline hold.
void BM_LoadedIssueLoop(benchmark::State& state, mem::SchedKind kind) {
  const auto dram_cfg = dram::DramConfig::ddr4_2400();
  sim::ClosedLoop cores(bench::hetero_mix(11));
  mem::ControllerConfig ctrl;
  ctrl.num_cores = static_cast<std::uint32_t>(cores.injectors().size());
  mem::MemorySystem sys(dram_cfg, ctrl);
  sys.controller(0).set_scheduler(mem::make_scheduler(kind, ctrl.num_cores, 7));
  Cycle now = 0;
  for (auto _ : state) now = cores.run(sys, now, now + 10'000);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK_CAPTURE(BM_LoadedIssueLoop, fr_fcfs, mem::SchedKind::FrFcfs);
BENCHMARK_CAPTURE(BM_LoadedIssueLoop, tcm, mem::SchedKind::Tcm);
BENCHMARK_CAPTURE(BM_LoadedIssueLoop, rl, mem::SchedKind::Rl);

// Same loaded system, both clock modes. With non-empty queues the old
// next_event collapsed to now+1 and SkipAhead degenerated to PerCycle; the
// precise busy lower bound lets the kernel jump bank-timing and refresh
// waits even under load, cycle-exactly (tests/clock_test.cc LoadedMatrix).
void BM_SkipAheadLoaded(benchmark::State& state, sim::ClockMode mode) {
  const auto dram_cfg = dram::DramConfig::ddr4_2400();
  sim::ClosedLoop cores(bench::hetero_mix(23));
  mem::ControllerConfig ctrl;
  ctrl.num_cores = static_cast<std::uint32_t>(cores.injectors().size());
  mem::MemorySystem sys(dram_cfg, ctrl);
  sys.set_clock_mode(mode);
  Cycle now = 0;
  for (auto _ : state) now = cores.run(sys, now, now + 10'000);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK_CAPTURE(BM_SkipAheadLoaded, per_cycle, sim::ClockMode::PerCycle);
BENCHMARK_CAPTURE(BM_SkipAheadLoaded, skip_ahead, sim::ClockMode::SkipAhead);

// The open-loop sharded drain: a saturating mem::hashed_source on 8
// channels, every request due at once, so each feeder spends the run
// blocked on a full queue — the case the per-channel calendar and the
// exact blocked-feeder wake exist for. Arg = shard width. Items = requests
// drained, each delivering one completion through the barrier mailboxes.
void BM_SourcedDrain(benchmark::State& state) {
  auto dram_cfg = dram::DramConfig::ddr4_2400();
  dram_cfg.geometry.channels = 8;
  mem::MemorySystem sys(dram_cfg, mem::ControllerConfig{});
  sys.set_shards(static_cast<unsigned>(state.range(0)));
  constexpr std::uint64_t kOps = 1'000;
  std::uint64_t checksum = 0;
  std::uint64_t seed = 0;
  Cycle now = 0;
  for (auto _ : state)
    now = sys.drain_sourced(mem::hashed_source(sys, kOps, ++seed, 4, &checksum), now);
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kOps) *
                          sys.num_channels());
}
BENCHMARK(BM_SourcedDrain)->Arg(1)->Arg(2)->UseRealTime();

// The SoA timing kernels at thousand-bank scale: whole-rank linear sweeps
// over the dense per-unit arrays — earliest(PreAll) (max-fold over open
// units) and min_next_ready (the Ref-readiness fold) — on a channel with
// every other bank open. Items = units scanned, so items/sec is sweep
// bandwidth: it should hold roughly flat from 64 to 4096 banks if the
// scans are truly linear and branch-light, whereas the pre-SoA pointer-
// chasing walk lost bandwidth as the bank map outgrew the cache.
void BM_BankScan(benchmark::State& state) {
  auto cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.ranks = 1;
  cfg.geometry.banks = static_cast<std::uint32_t>(state.range(0));
  dram::Channel chan(cfg, 0, nullptr);
  Cycle now = 1;
  for (std::uint32_t b = 0; b < cfg.geometry.banks; b += 2) {
    const dram::Coord c{0, 0, b, (b * 37) % cfg.geometry.rows_per_bank(), 0};
    const Cycle t = chan.earliest(dram::Cmd::Act, c, now);
    chan.issue(dram::Cmd::Act, c, t);
    now = t + 1;
  }
  const dram::Coord any{0, 0, 0, 0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(chan.earliest(dram::Cmd::PreAll, any, now));
    benchmark::DoNotOptimize(chan.min_next_ready(0, now));
    ++now;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          cfg.geometry.banks);
}
BENCHMARK(BM_BankScan)->Arg(64)->Arg(512)->Arg(4096);

void BM_SchedulerPick(benchmark::State& state) {
  const auto cfg = dram::DramConfig::ddr4_2400();
  dram::Channel chan(cfg, 0, nullptr);
  auto sched = mem::make_scheduler(mem::SchedKind::ParBs, 4);
  std::vector<mem::CoreState> cores(4);
  std::vector<mem::QueuedRequest> q;
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    mem::QueuedRequest r;
    r.coord = dram::Coord{0, 0, static_cast<std::uint32_t>(rng.next_below(8)),
                          static_cast<std::uint32_t>(rng.next_below(1024)), 0};
    r.core = static_cast<std::uint32_t>(rng.next_below(4));
    r.arrive = static_cast<Cycle>(i);
    q.push_back(r);
  }
  // Built as the controller builds its view: the same meta builder plus a
  // timing cache; arrivals ascend, the order the controller keeps.
  std::vector<mem::QueueScanMeta> meta;
  for (const auto& r : q) meta.push_back(mem::scan_meta(chan, r));
  mem::SchedTimingCache cache(chan);
  cache.begin(100);
  const mem::SchedView view{100, &cores, &cache, meta.data()};
  for (auto _ : state) {
    sched->tick(view, q);
    benchmark::DoNotOptimize(sched->pick(q, view));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerPick);

}  // namespace

BENCHMARK_MAIN();
