// Cycle-exactness golden tests for the event-driven clocking kernel
// (common/clock.hh): ClockMode::SkipAhead must reproduce the legacy
// ClockMode::PerCycle loop bit-for-bit — identical final cycle counts and
// identical StatRegistry snapshots — across every scheduler kind, every
// refresh policy, RowHammer mitigation, rank power management, runahead
// cores and prefetchers. Any skipped cycle that would have changed state
// shows up here as a stats diff.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/mc_harness.hh"
#include "common/ckpt.hh"
#include "common/clock.hh"
#include "common/rng.hh"
#include "hybrid/hybrid.hh"
#include "mem/memsys.hh"
#include "mem/refresh.hh"
#include "mem/rowhammer.hh"
#include "obs/stat_registry.hh"
#include "obs/timeseries.hh"
#include "pim/pum.hh"
#include "sim/system.hh"
#include "workloads/stream.hh"

using namespace ima;

namespace {

void expect_identical(const obs::StatRegistry::Snapshot& per_cycle,
                      const obs::StatRegistry::Snapshot& skip_ahead) {
  ASSERT_EQ(per_cycle.size(), skip_ahead.size());
  for (std::size_t i = 0; i < per_cycle.values.size(); ++i) {
    EXPECT_EQ(per_cycle.values[i].path, skip_ahead.values[i].path);
    EXPECT_EQ(per_cycle.values[i].value, skip_ahead.values[i].value)
        << "stat diverges between clock modes: " << per_cycle.values[i].path;
  }
}

std::vector<std::unique_ptr<workloads::AccessStream>> make_streams(std::uint32_t n,
                                                                   std::uint32_t compute) {
  std::vector<std::unique_ptr<workloads::AccessStream>> v;
  for (std::uint32_t i = 0; i < n; ++i) {
    workloads::StreamParams p;
    p.footprint = 8ull << 20;
    p.compute_per_access = compute;
    p.seed = 11 + i;
    if (i % 2 == 0) v.push_back(workloads::make_random(p));
    else v.push_back(workloads::make_streaming(p));
  }
  return v;
}

struct RunResult {
  Cycle end = 0;
  obs::StatRegistry::Snapshot snap;
};

RunResult run_system(sim::ClockMode mode, const std::function<void(sim::SystemConfig&)>& tweak,
                     const std::function<void(sim::System&)>& wire = nullptr,
                     std::uint32_t compute = 4, Cycle max_cycles = 5'000'000) {
  sim::SystemConfig cfg;
  cfg.num_cores = 2;
  cfg.ctrl.num_cores = 2;
  cfg.core.instr_limit = 4'000;
  if (tweak) tweak(cfg);
  cfg.clock = mode;
  // Lifecycle spans on in every golden run: the span recorders (and their
  // registered percentile paths) must themselves be clock-mode invariant.
  cfg.ctrl.record_spans = true;
  sim::System sys(cfg, make_streams(cfg.num_cores, compute));
  if (wire) wire(sys);
  obs::StatRegistry reg;
  sys.register_stats(reg);
  RunResult r;
  r.end = sys.run(max_cycles);
  r.snap = reg.snapshot();
  return r;
}

void expect_modes_match(const std::function<void(sim::SystemConfig&)>& tweak,
                        const std::function<void(sim::System&)>& wire = nullptr,
                        std::uint32_t compute = 4, Cycle max_cycles = 5'000'000) {
  const RunResult pc = run_system(sim::ClockMode::PerCycle, tweak, wire, compute, max_cycles);
  const RunResult sa = run_system(sim::ClockMode::SkipAhead, tweak, wire, compute, max_cycles);
  ASSERT_EQ(pc.end, sa.end) << "final cycle count diverges between clock modes";
  expect_identical(pc.snap, sa.snap);
  // Sanity: the run did real work in bounded time.
  ASSERT_GT(pc.end, 0u);
  ASSERT_LT(pc.end, max_cycles);
}

TEST(ClockKernel, NextCycleSemantics) {
  using sim::ClockMode;
  using sim::next_cycle;
  // Per-cycle always advances by one.
  EXPECT_EQ(next_cycle(ClockMode::PerCycle, 10, 100, 50), 11u);
  // Skip-ahead jumps to the reported event, clamped to the limit.
  EXPECT_EQ(next_cycle(ClockMode::SkipAhead, 10, 100, 50), 50u);
  EXPECT_EQ(next_cycle(ClockMode::SkipAhead, 10, 40, 50), 40u);
  EXPECT_EQ(next_cycle(ClockMode::SkipAhead, 10, 100, kCycleNever), 100u);
  // Stale/degenerate reports fall back to per-cycle progress.
  EXPECT_EQ(next_cycle(ClockMode::SkipAhead, 10, 100, 10), 11u);
  EXPECT_EQ(next_cycle(ClockMode::SkipAhead, 10, 100, 0), 11u);
}

TEST(ClockKernel, RunEventLoopMatchesLegacyShapes) {
  // done-after-tick: the returned cycle is the cycle just ticked.
  std::vector<Cycle> ticked;
  const Cycle end = sim::run_event_loop(
      sim::ClockMode::SkipAhead, 0, 100, [&](Cycle now) { ticked.push_back(now); },
      [&] { return ticked.size() >= 3; }, [](Cycle now) { return now + 10; });
  EXPECT_EQ(end, 20u);
  EXPECT_EQ(ticked, (std::vector<Cycle>{0, 10, 20}));
  // Limit reached without done: returns the limit.
  const Cycle capped = sim::run_event_loop(
      sim::ClockMode::SkipAhead, 0, 25, [](Cycle) {}, [] { return false; },
      [](Cycle now) { return now + 10; });
  EXPECT_EQ(capped, 25u);
}

TEST(ClockExact, AllSchedulerKinds) {
  for (const auto kind :
       {mem::SchedKind::Fcfs, mem::SchedKind::FrFcfs, mem::SchedKind::FrFcfsCap,
        mem::SchedKind::ParBs, mem::SchedKind::Atlas, mem::SchedKind::Tcm,
        mem::SchedKind::Bliss, mem::SchedKind::Rl}) {
    SCOPED_TRACE(mem::to_string(kind));
    expect_modes_match([kind](sim::SystemConfig& cfg) { cfg.ctrl.sched = kind; });
  }
}

TEST(ClockExact, MiseScheduler) {
  expect_modes_match(nullptr, [](sim::System& sys) {
    sys.memory().controller(0).set_scheduler(mem::make_mise(2));
  });
}

TEST(ClockExact, RefreshPolicies) {
  // No refresh.
  expect_modes_match(nullptr, [](sim::System& sys) {
    sys.memory().controller(0).set_refresh_policy(mem::make_no_refresh());
  });
  // All-bank at the default and a stretched interval.
  expect_modes_match(nullptr);
  expect_modes_match(nullptr, [](sim::System& sys) {
    const auto& cfg = sys.memory().dram_config();
    sys.memory().controller(0).set_refresh_policy(mem::make_all_bank_refresh(cfg, 2.0));
  });
  // RAIDR with a generated retention profile.
  expect_modes_match(nullptr, [](sim::System& sys) {
    const auto& g = sys.memory().dram_config().geometry;
    const std::uint64_t rows = g.rows_per_bank() * g.banks * g.ranks;
    auto profile = mem::RetentionProfile::generate(rows);
    sys.memory().controller(0).set_refresh_policy(
        mem::make_raidr(sys.memory().dram_config(), std::move(profile)));
  });
}

TEST(ClockExact, RowHammerMitigation) {
  const RunResult pc =
      run_system(sim::ClockMode::PerCycle,
                 [](sim::SystemConfig& cfg) { cfg.ctrl.sched = mem::SchedKind::Fcfs; },
                 [](sim::System& sys) {
                   sys.memory().controller(0).set_rowhammer(mem::make_para(0.7, 9));
                 });
  const RunResult sa =
      run_system(sim::ClockMode::SkipAhead,
                 [](sim::SystemConfig& cfg) { cfg.ctrl.sched = mem::SchedKind::Fcfs; },
                 [](sim::System& sys) {
                   sys.memory().controller(0).set_rowhammer(mem::make_para(0.7, 9));
                 });
  ASSERT_EQ(pc.end, sa.end);
  expect_identical(pc.snap, sa.snap);
  // The config must actually have exercised the victim-refresh path.
  EXPECT_GT(sa.snap.at("sys.mem.ctrl0.victim_refreshes").value_or(0), 0.0);
}

TEST(ClockExact, RankPowerManagement) {
  // Long compute bursts create the idle gaps power management needs; the
  // power-state thresholds and refresh wakes must land on the same cycles
  // in both modes.
  const auto tweak = [](sim::SystemConfig& cfg) {
    cfg.core.instr_limit = 60'000;
    cfg.ctrl.powerdown_timeout = 400;
    cfg.ctrl.selfrefresh_timeout = 4'000;
  };
  const RunResult pc = run_system(sim::ClockMode::PerCycle, tweak, nullptr, 20'000);
  const RunResult sa = run_system(sim::ClockMode::SkipAhead, tweak, nullptr, 20'000);
  ASSERT_EQ(pc.end, sa.end);
  expect_identical(pc.snap, sa.snap);
  EXPECT_GT(sa.snap.at("sys.mem.ctrl0.powerdowns").value_or(0), 0.0);
  EXPECT_GT(sa.snap.at("sys.mem.ctrl0.selfrefreshes").value_or(0), 0.0);
}

TEST(ClockExact, RunaheadAndPrefetch) {
  expect_modes_match([](sim::SystemConfig& cfg) {
    cfg.core.runahead = true;
    cfg.prefetch = sim::PrefetchKind::Stride;
  });
}

TEST(ClockExact, ResumedRunsMatch) {
  // run() is resumable (the claims suite runs phase by phase); the event
  // kernel must keep the same final state across split runs.
  const auto run_split = [](sim::ClockMode mode) {
    sim::SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.ctrl.num_cores = 2;
    cfg.core.instr_limit = 4'000;
    cfg.clock = mode;
    sim::System sys(cfg, make_streams(2, 4));
    obs::StatRegistry reg;
    sys.register_stats(reg);
    Cycle end = 0;
    for (int phase = 0; phase < 50; ++phase) end = sys.run((phase + 1) * 10'000);
    end = sys.run(5'000'000);
    return std::pair<Cycle, obs::StatRegistry::Snapshot>(end, reg.snapshot());
  };
  const auto pc = run_split(sim::ClockMode::PerCycle);
  const auto sa = run_split(sim::ClockMode::SkipAhead);
  ASSERT_EQ(pc.first, sa.first);
  expect_identical(pc.second, sa.second);
}

mem::Request make_req(Addr addr, AccessType type, Cycle arrive) {
  mem::Request r;
  r.addr = addr;
  r.type = type;
  r.arrive = arrive;
  return r;
}

// Saturated-queue golden rows: MLP-window injectors keep the controller
// queues full, the regime where the precise busy-controller next_event
// bound (rather than the old blanket now + 1) decides which cycles are
// skipped. Every scheduler kind must stay cycle-exact here with refresh,
// PARA RowHammer and rank power management all enabled — PAR-BS's
// arrival-sensitive batch formation regressed in exactly this scenario
// class during development. `sched_sel` is a SchedKind, or -1 for MISE.
std::pair<Cycle, obs::StatRegistry::Snapshot> run_loaded(sim::ClockMode mode, int sched_sel) {
  auto dram_cfg = dram::DramConfig::ddr4_2400();
  mem::ControllerConfig ctrl;
  ctrl.num_cores = 4;
  ctrl.record_spans = true;
  ctrl.powerdown_timeout = 400;
  ctrl.selfrefresh_timeout = 4'000;
  if (sched_sel >= 0) ctrl.sched = static_cast<mem::SchedKind>(sched_sel);
  mem::MemorySystem sys(dram_cfg, ctrl);
  sys.set_clock_mode(mode);
  if (sched_sel < 0) sys.controller(0).set_scheduler(mem::make_mise(4));
  sys.controller(0).set_rowhammer(mem::make_para(0.7, 9));
  obs::StatRegistry reg;
  sys.register_stats(reg, "mem");

  sim::ClosedLoop cores(bench::hetero_mix(101));
  Cycle now = cores.run(sys, 0, 120'000);

  // Stop injecting and drain, then cross an idle gap and issue a short
  // burst: the refresh catch-up and rank power-state accounting deferred
  // across the gap must land on the same cycles in both modes too.
  now = sys.drain(now);
  now += 20'000;
  const auto& g = dram_cfg.geometry;
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(
        sys.enqueue(make_req(static_cast<Addr>(i) * g.row_bytes() * 5, AccessType::Read, now)));
  now = sys.drain(now);
  return {now, reg.snapshot()};
}

TEST(ClockExact, LoadedQueueAllSchedulers) {
  for (int sel = -1; sel <= static_cast<int>(mem::SchedKind::Rl); ++sel) {
    SCOPED_TRACE(sel < 0 ? "MISE" : mem::to_string(static_cast<mem::SchedKind>(sel)));
    const auto pc = run_loaded(sim::ClockMode::PerCycle, sel);
    const auto sa = run_loaded(sim::ClockMode::SkipAhead, sel);
    ASSERT_EQ(pc.first, sa.first) << "final cycle diverges under load";
    expect_identical(pc.second, sa.second);
    // The run must actually have saturated the queue and exercised the
    // RowHammer mitigation it claims to cover.
    EXPECT_GT(sa.second.at("mem.ctrl0.reads_done").value_or(0), 1000.0);
    EXPECT_GT(sa.second.at("mem.ctrl0.victim_refreshes").value_or(0), 0.0);
  }
}

// sim::ClosedLoop drives the MLP-window benches (C5, C10, C13, C20) and the
// self-optimizing controller example. Its per-core results must not depend
// on the clock mode, nor on cutting one run into consecutive windows: C5's
// learning curve and the example report per-window deltas of a single run.
static_assert(!std::is_copy_constructible_v<sim::ClosedLoop> &&
                  !std::is_move_constructible_v<sim::ClosedLoop>,
              "in-flight completion callbacks point at the ClosedLoop");

struct LoopOutcome {
  std::vector<std::uint64_t> served;
  std::vector<double> latency_sum;
};

template <typename MakeMem>
void expect_closed_loop_exact(const MakeMem& make_mem, Cycle until) {
  const auto run = [&](sim::ClockMode mode, Cycle split) {
    auto mem = make_mem();
    mem->set_clock_mode(mode);
    sim::ClosedLoop loop(bench::hetero_mix(31));
    EXPECT_EQ(loop.run(*mem, 0, split), split);
    EXPECT_EQ(loop.run(*mem, split, until), until);
    LoopOutcome out;
    for (const auto& in : loop.injectors()) {
      out.served.push_back(in.served);
      out.latency_sum.push_back(in.read_latency_sum);
    }
    return out;
  };
  const LoopOutcome ref = run(sim::ClockMode::PerCycle, until);
  for (const std::uint64_t s : ref.served) EXPECT_GT(s, 0u);
  for (const auto mode : {sim::ClockMode::PerCycle, sim::ClockMode::SkipAhead}) {
    for (const Cycle split : {until / 2, until}) {
      SCOPED_TRACE(std::string(sim::to_string(mode)) + (split < until ? ", split" : ", whole"));
      const LoopOutcome got = run(mode, split);
      EXPECT_EQ(got.served, ref.served);
      EXPECT_EQ(got.latency_sum, ref.latency_sum);
    }
  }
}

TEST(ClosedLoop, MemorySystemFrFcfsAndRl) {
  for (const auto kind : {mem::SchedKind::FrFcfs, mem::SchedKind::Rl}) {
    SCOPED_TRACE(mem::to_string(kind));
    expect_closed_loop_exact(
        [kind] {
          mem::ControllerConfig ctrl;
          ctrl.num_cores = 4;
          ctrl.sched = kind;
          return std::make_unique<mem::MemorySystem>(dram::DramConfig::ddr4_2400(), ctrl);
        },
        40'000);
  }
}

TEST(ClosedLoop, HybridMemory) {
  expect_closed_loop_exact(
      [] {
        hybrid::HybridConfig cfg;
        cfg.dram_bytes = 1ull << 20;
        cfg.epoch = 5'000;
        cfg.hot_threshold = 2;
        return std::make_unique<hybrid::HybridMemory>(cfg);
      },
      40'000);
}

TEST(Spans, StagesSumExactlyToEndToEnd) {
  // The lifecycle decomposition must lose nothing and double-count
  // nothing: queue + stall + refresh + xfer == end-to-end, summed over
  // every retired read, in both clock modes.
  for (const auto mode : {sim::ClockMode::PerCycle, sim::ClockMode::SkipAhead}) {
    SCOPED_TRACE(mode == sim::ClockMode::PerCycle ? "PerCycle" : "SkipAhead");
    sim::SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.ctrl.num_cores = 2;
    cfg.core.instr_limit = 4'000;
    cfg.ctrl.record_spans = true;
    cfg.clock = mode;
    sim::System sys(cfg, make_streams(2, 4));
    sys.run(5'000'000);
    std::uint64_t reads = 0;
    for (std::uint32_t ch = 0; ch < sys.memory().num_channels(); ++ch) {
      const auto& c = sys.memory().controller(ch);
      const auto* sp = c.spans();
      ASSERT_NE(sp, nullptr);
      const auto& e2e = c.stats().read_latency;
      EXPECT_EQ(sp->queue.count(), e2e.count());
      EXPECT_EQ(sp->xfer.count(), e2e.count());
      EXPECT_EQ(sp->queue.sum() + sp->stall.sum() + sp->refresh.sum() + sp->xfer.sum(),
                e2e.sum());
      reads += e2e.count();
    }
    EXPECT_GT(reads, 0u);
  }
}

TEST(ClockExact, TimeSeriesSamplesMatch) {
  // The windowed sampler must produce an identical sample stream in both
  // clock modes: same boundaries, same values, same emitted/dropped counts.
  const auto run_ts = [](sim::ClockMode mode) {
    sim::SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.ctrl.num_cores = 2;
    cfg.core.instr_limit = 4'000;
    cfg.clock = mode;
    sim::System sys(cfg, make_streams(2, 4));
    obs::StatRegistry reg;
    sys.register_stats(reg);
    obs::TimeSeries ts("t", 1'000);
    EXPECT_TRUE(ts.track_path(reg, "sys.mem.ctrl0.reads_done"));
    EXPECT_TRUE(ts.track_path(reg, "sys.core0.instructions"));
    sys.set_timeseries(&ts);
    sys.run(5'000'000);
    return ts.data();
  };
  const auto pc = run_ts(sim::ClockMode::PerCycle);
  const auto sa = run_ts(sim::ClockMode::SkipAhead);
  EXPECT_EQ(pc.emitted, sa.emitted);
  EXPECT_EQ(pc.dropped, sa.dropped);
  ASSERT_EQ(pc.samples.size(), sa.samples.size());
  for (std::size_t i = 0; i < pc.samples.size(); ++i) {
    EXPECT_EQ(pc.samples[i].cycle, sa.samples[i].cycle) << "sample " << i;
    EXPECT_EQ(pc.samples[i].values, sa.samples[i].values) << "sample " << i;
  }
  EXPECT_GT(pc.samples.size(), 1u);
}

TEST(ClockExact, MemorySystemDrain) {
  // Skip-ahead drain must return the same final cycle and stats as the
  // legacy busy-wait, including pending victim refreshes (idle() must not
  // report idle while the victim queue holds work).
  const auto run_drain = [](sim::ClockMode mode) {
    auto dram_cfg = dram::DramConfig::ddr4_2400();
    mem::ControllerConfig ctrl;
    ctrl.sched = mem::SchedKind::Fcfs;
    ctrl.powerdown_timeout = 300;
    ctrl.selfrefresh_timeout = 2'000;
    mem::MemorySystem sys(dram_cfg, ctrl);
    sys.set_clock_mode(mode);
    sys.controller(0).set_rowhammer(mem::make_para(1.0, 3));
    obs::StatRegistry reg;
    sys.register_stats(reg, "mem");

    Cycle now = 0;
    const auto& g = dram_cfg.geometry;
    for (int burst = 0; burst < 8; ++burst) {
      for (int i = 0; i < 16; ++i) {
        const Addr addr = static_cast<Addr>(i) * g.row_bytes() * 7 + burst * 64;
        EXPECT_TRUE(sys.enqueue(make_req(addr, i % 4 ? AccessType::Read : AccessType::Write, now)));
      }
      now = sys.drain(now);
      now += 20'000;  // idle gap: refresh/power events only
      now = sys.drain(now);
    }
    return std::pair<Cycle, obs::StatRegistry::Snapshot>(now, reg.snapshot());
  };
  const auto pc = run_drain(sim::ClockMode::PerCycle);
  const auto sa = run_drain(sim::ClockMode::SkipAhead);
  ASSERT_EQ(pc.first, sa.first);
  expect_identical(pc.second, sa.second);
  EXPECT_GT(sa.second.at("mem.ctrl0.victim_refreshes").value_or(0), 0.0);
}

TEST(ClockExact, HybridMemoryDrain) {
  const auto run_hybrid = [](sim::ClockMode mode) {
    hybrid::HybridConfig cfg;
    cfg.dram_bytes = 1ull << 20;
    cfg.epoch = 5'000;
    cfg.hot_threshold = 2;
    hybrid::HybridMemory hm(cfg);
    hm.set_clock_mode(mode);
    Rng rng(21);
    Cycle now = 0;
    for (int burst = 0; burst < 6; ++burst) {
      for (int i = 0; i < 32; ++i) {
        const Addr addr = rng.next_below(64ull << 10);
        EXPECT_TRUE(hm.enqueue(
            make_req(line_base(addr), i % 3 ? AccessType::Read : AccessType::Write, now)));
      }
      now = hm.drain(now);
      now += 7'000;
      now = hm.drain(now);
    }
    return std::pair<Cycle, hybrid::HybridMemory::Stats>(now, hm.stats());
  };
  const auto pc = run_hybrid(sim::ClockMode::PerCycle);
  const auto sa = run_hybrid(sim::ClockMode::SkipAhead);
  EXPECT_EQ(pc.first, sa.first);
  EXPECT_EQ(pc.second.dram_serviced, sa.second.dram_serviced);
  EXPECT_EQ(pc.second.pcm_serviced, sa.second.pcm_serviced);
  EXPECT_EQ(pc.second.promotions, sa.second.promotions);
  EXPECT_EQ(pc.second.demotions, sa.second.demotions);
  EXPECT_EQ(pc.second.migration_lines, sa.second.migration_lines);
  // The config must actually have exercised the migration machinery.
  EXPECT_GT(sa.second.promotions, 0u);
}

// MemorySystem's wake cache does not tick a controller at a visited cycle
// before its own next_event while its mutation stamp holds. Skewed channel load is where
// that pays and where it can go wrong: four channels, core 0 streaming
// through channel 0 alone (a stride of one line per channel under
// RoBaRaCoCh), cores 1..3 touching every channel rarely, with all-bank
// refresh and both power-state timeouts on. The idle channels sleep, wake
// and refresh between the hot channel's events. Both clock modes must end on
// the same cycle with the same statistics and, once drained, the same
// checkpoint image: an untouched controller's state answers for every cycle
// it was not ticked at.
struct SkewedOutcome {
  Cycle end = 0;
  std::string render;
  std::vector<std::uint8_t> image;
  std::vector<std::uint64_t> stamps;  // per-channel controller mutation stamps
  std::uint64_t idle_selfrefreshes = 0;  // channels 1..3
};

SkewedOutcome run_skewed_system(sim::ClockMode mode) {
  sim::SystemConfig cfg;
  cfg.num_cores = 4;
  cfg.ctrl.num_cores = 4;
  cfg.core.instr_limit = 12'000;
  cfg.dram.geometry.channels = 4;
  cfg.ctrl.powerdown_timeout = 300;
  cfg.ctrl.selfrefresh_timeout = 3'000;
  cfg.clock = mode;
  std::vector<std::unique_ptr<workloads::AccessStream>> streams;
  workloads::StreamParams hot;
  hot.footprint = 16ull << 20;
  hot.compute_per_access = 2;
  streams.push_back(workloads::make_streaming(hot, 4 * kLineBytes));
  for (std::uint32_t i = 1; i < 4; ++i) {
    workloads::StreamParams cold;
    cold.base = Addr{i} << 28;
    cold.footprint = 16ull << 20;
    cold.compute_per_access = 400;
    cold.seed = 40 + i;
    streams.push_back(workloads::make_random(cold));
  }
  sim::System sys(cfg, std::move(streams));
  SkewedOutcome out;
  out.end = sys.run(20'000'000);
  sys.memory().drain(sys.now());
  out.render = [&] {
    obs::StatRegistry reg;
    sys.register_stats(reg);
    return reg.snapshot().render();
  }();
  out.image = ckpt::capture(sys).payload;
  for (std::uint32_t c = 0; c < 4; ++c) {
    const mem::Controller& ctrl = sys.memory().controller(c);
    out.stamps.push_back(ctrl.mutation_stamp());
    if (c > 0) out.idle_selfrefreshes += ctrl.stats().selfrefreshes;
  }
  return out;
}

TEST(ClockExact, SkewedChannelsWakeCache) {
  const SkewedOutcome pc = run_skewed_system(sim::ClockMode::PerCycle);
  const SkewedOutcome sa = run_skewed_system(sim::ClockMode::SkipAhead);
  ASSERT_LT(pc.end, 20'000'000u);
  EXPECT_EQ(pc.end, sa.end);
  EXPECT_EQ(pc.render, sa.render);
  EXPECT_TRUE(pc.image == sa.image) << "checkpoint images differ between clock modes";
  // The scenario is the one the cache is for: the idle channels slept and
  // were skipped at most of the hot channel's visits, so each of them saw
  // far fewer ticks and enqueues than channel 0.
  EXPECT_GT(sa.idle_selfrefreshes, 0u);
  for (std::uint32_t c = 1; c < 4; ++c) EXPECT_LT(sa.stamps[c] * 4, sa.stamps[0]) << "ch" << c;
}

// The PIM path of pim/pum.cc: a program enqueued straight on an idle,
// self-refreshing channel's controller between MemorySystem ticks, bypassing
// MemorySystem::enqueue. The controller's mutation stamp must move, or the
// cached wake (self-refresh: none at all) keeps the channel skipped and the
// program never issues.
struct PimLegOutcome {
  Cycle end = 0;
  std::string render;
  std::vector<std::uint8_t> image;
};

PimLegOutcome run_pim_leg(sim::ClockMode mode) {
  auto dram_cfg = dram::DramConfig::ddr4_2400();
  dram_cfg.geometry.channels = 4;
  mem::ControllerConfig ctrl;
  ctrl.num_cores = 1;
  ctrl.powerdown_timeout = 300;
  ctrl.selfrefresh_timeout = 3'000;
  mem::MemorySystem sys(dram_cfg, ctrl);
  sys.set_clock_mode(mode);
  std::vector<sim::Injector> cores;
  workloads::StreamParams hot;
  hot.footprint = 16ull << 20;
  cores.push_back({workloads::make_streaming(hot, 4 * kLineBytes), /*mlp=*/16});
  sim::ClosedLoop loop(std::move(cores));
  EXPECT_EQ(loop.run(sys, 0, 5'000), 5'000u);
  const pim::CopyEngine copier(dram_cfg.geometry);
  pim::enqueue_program(sys.controller(2), copier.zero_row(pim::RowRef{2, 0, 1, 5}));
  EXPECT_EQ(loop.run(sys, 5'000, 12'000), 12'000u);
  PimLegOutcome out;
  out.end = sys.drain(12'000);
  EXPECT_FALSE(sys.last_drain_clipped());
  EXPECT_TRUE(sys.idle());
  obs::StatRegistry reg;
  sys.register_stats(reg, "mem");
  out.render = reg.snapshot().render();
  out.image = ckpt::capture(sys).payload;
  EXPECT_GT(sys.controller(2).stats().pim_ops_done, 0u);
  return out;
}

TEST(ClockExact, PimEnqueuedBetweenTicksWakesSkippedChannel) {
  const PimLegOutcome pc = run_pim_leg(sim::ClockMode::PerCycle);
  const PimLegOutcome sa = run_pim_leg(sim::ClockMode::SkipAhead);
  EXPECT_EQ(pc.end, sa.end);
  EXPECT_EQ(pc.render, sa.render);
  EXPECT_TRUE(pc.image == sa.image) << "checkpoint images differ between clock modes";
}

// One controller driven directly, with no MemorySystem around it: one twin is
// ticked every cycle, the other only at its own next_event cycles (and at the
// cycles the test enqueues), with nothing called in between. The contract
// (common/clock.hh) says the untouched cycles are no-ops, so both twins must
// serve the same requests at the same cycles and end with the same
// statistics and checkpoint images. The load sleeps long enough for ranks to
// power down and self-refresh across refresh due times, then wakes them.
struct DirectRun {
  std::size_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t completion_sum = 0;  // sum of id * complete
  std::uint64_t refilled = 0;        // follow-ups a completion enqueued
  std::uint64_t refused = 0;         // refill runs: requests a full queue turned away
  std::string render;
  std::vector<std::uint8_t> image;
  mem::Controller::Stats stats;
  std::uint64_t refreshes = 0;  // REFs plus RAIDR row refreshes
};

// A completion callback that refills the controller which retired it, the
// pattern System's cores use: each completion enqueues a follow-up, stamped
// with the completion cycle, for up to kDepth generations (counted in the
// request's tag). Half the follow-ups go to the completed request's own
// row, so some are issuable in the very tick that retired their parent.
struct Refill {
  static constexpr std::uint64_t kDepth = 3;
  mem::Controller* ctrl;
  DirectRun* out;

  void operator()(const mem::Request& done) const {
    ++out->served;
    out->completion_sum += done.id * done.complete;
    if (done.tag >= kDepth) return;
    Rng rng(done.id * 0x9e3779b97f4a7c15ull + done.complete);
    const std::uint64_t bytes = ctrl->channel().config().geometry.channel_bytes();
    mem::Request r;
    r.addr = rng.next_below(2) == 0
                 ? done.addr ^ (kLineBytes * (1 + rng.next_below(4)))
                 : rng.next_below(bytes) & ~Addr{kLineBytes - 1};
    r.type = rng.next_below(4) == 0 ? AccessType::Write : AccessType::Read;
    r.core = static_cast<std::uint32_t>(rng.next_below(2));
    r.arrive = done.complete;
    r.tag = done.tag + 1;
    ++(ctrl->enqueue(r, *this) ? out->refilled : out->refused);
  }
};

struct Arrival {
  Cycle at;
  Addr addr;
  AccessType type;
};

std::vector<Arrival> direct_load(const dram::Geometry& g) {
  Rng rng(23);
  std::vector<Arrival> load;
  const auto add = [&](Cycle at) {
    const Addr addr = rng.next_below(g.channel_bytes()) & ~Addr{kLineBytes - 1};
    load.push_back({at, addr, rng.next_below(5) == 0 ? AccessType::Write : AccessType::Read});
  };
  for (Cycle t = 0; t < 6'000; t += 37) add(t);        // busy: ranks stay active
  for (int i = 0; i < 40; ++i) add(30'000);            // after a self-refresh nap
  for (int i = 0; i < 4; ++i) add(31'000);             // after a power-down nap
  for (Cycle t = 60'000; t < 90'000; t += 401) add(t);  // power down between requests
  for (int i = 0; i < 24; ++i) add(150'000);           // after several tREFI asleep
  return load;
}

struct DirectSetup {
  bool raidr = false;
  mem::SchedKind sched = mem::SchedKind::FrFcfs;
  // Two cores, and every completion runs a Refill; otherwise one core and a
  // plain completion counter.
  bool refill = false;
};

DirectRun run_direct(bool every_cycle, const DirectSetup& setup) {
  dram::DramConfig cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.channels = 1;
  cfg.geometry.ranks = 2;
  cfg.geometry.banks = 8;
  cfg.geometry.subarrays = 4;
  cfg.geometry.rows_per_subarray = 64;
  cfg.geometry.columns = 32;
  mem::ControllerConfig ccfg;
  ccfg.sched = setup.sched;
  ccfg.num_cores = setup.refill ? 2 : 1;
  ccfg.powerdown_timeout = 300;
  ccfg.selfrefresh_timeout = 3'000;
  dram::AddressMapper mapper(cfg.geometry, dram::MapScheme::RoBaRaCoCh);
  dram::Channel chan(cfg, 0, nullptr);
  mem::Controller ctrl(chan, mapper, ccfg);
  if (setup.raidr) {
    const std::uint64_t rows = std::uint64_t{cfg.geometry.ranks} * cfg.geometry.banks *
                               cfg.geometry.rows_per_bank();
    ctrl.set_refresh_policy(
        mem::make_raidr(cfg, mem::RetentionProfile::generate(rows, 1.0, 0.0, 5)));
  }

  DirectRun out;
  const std::vector<Arrival> load = direct_load(cfg.geometry);
  out.offered = load.size();
  std::size_t next_arrival = 0;
  const Cycle end = 200'000;
  for (Cycle now = 0; now < end;) {
    for (; next_arrival < load.size() && load[next_arrival].at == now; ++next_arrival) {
      mem::Request r;
      r.addr = load[next_arrival].addr;
      r.type = load[next_arrival].type;
      r.arrive = now;
      if (setup.refill) {
        r.core = static_cast<std::uint32_t>(next_arrival % 2);
        if (!ctrl.enqueue(r, Refill{&ctrl, &out})) ++out.refused;
        continue;
      }
      EXPECT_TRUE(ctrl.enqueue(r, [&out](const mem::Request& done) {
        ++out.served;
        out.completion_sum += done.id * done.complete;
      }));
    }
    ctrl.tick(now);
    if (every_cycle) {
      ++now;
      continue;
    }
    Cycle next = std::min(ctrl.next_event(now), end);
    if (next_arrival < load.size()) next = std::min(next, load[next_arrival].at);
    now = next;
  }
  EXPECT_EQ(next_arrival, load.size());
  EXPECT_TRUE(ctrl.idle());
  obs::StatRegistry reg;
  ctrl.register_stats(reg, "ctrl");
  out.render = reg.snapshot().render();
  out.image = ckpt::capture(ctrl).payload;
  const std::vector<std::uint8_t> chan_image = ckpt::capture(chan).payload;
  out.image.insert(out.image.end(), chan_image.begin(), chan_image.end());
  out.stats = ctrl.stats();
  out.refreshes = chan.stats().refs + chan.stats().ref_rows;
  return out;
}

TEST(ClockExact, ControllerTickedOnlyAtItsEventsMatchesPerCycle) {
  for (const bool raidr : {false, true}) {
    SCOPED_TRACE(raidr ? "RAIDR" : "all-bank");
    const DirectRun pc = run_direct(true, {.raidr = raidr});
    const DirectRun ev = run_direct(false, {.raidr = raidr});
    EXPECT_EQ(pc.served, pc.offered);
    EXPECT_EQ(pc.served, ev.served);
    EXPECT_EQ(pc.completion_sum, ev.completion_sum);
    EXPECT_EQ(pc.render, ev.render);
    EXPECT_TRUE(pc.image == ev.image) << "checkpoint images differ";
    // The load covers what it claims: refreshes and, under all-bank refresh
    // (whose forced PREALLs close the rows RAIDR leaves open), naps in both
    // power states and wakes.
    EXPECT_GT(ev.refreshes, 0u);
    if (raidr) continue;
    EXPECT_GT(ev.stats.powerdowns, 0u);
    EXPECT_GT(ev.stats.selfrefreshes, 0u);
    EXPECT_GT(ev.stats.rank_wakes, 0u);
  }
}

// run_direct's twins again, but each completion enqueues a follow-up into
// the controller that retired it (Refill), under every scheduler kind, both
// refresh policies and the power timeouts. Between events a
// skip-ahead tick may only retire, and a follow-up that a callback enqueues
// can be issuable in that same tick, so it must take the full tick there as
// the per-cycle twin does; issuing it a cycle late moves the completions.
TEST(ClockExact, CompletionRefillsItsOwnController) {
  for (const bool raidr : {false, true}) {
    for (const auto kind :
         {mem::SchedKind::Fcfs, mem::SchedKind::FrFcfs, mem::SchedKind::FrFcfsCap,
          mem::SchedKind::ParBs, mem::SchedKind::Atlas, mem::SchedKind::Tcm,
          mem::SchedKind::Bliss, mem::SchedKind::Rl}) {
      SCOPED_TRACE(std::string(raidr ? "RAIDR, " : "all-bank, ") + mem::to_string(kind));
      const DirectSetup setup{.raidr = raidr, .sched = kind, .refill = true};
      const DirectRun pc = run_direct(true, setup);
      const DirectRun ev = run_direct(false, setup);
      EXPECT_GT(pc.refilled, pc.offered);
      EXPECT_EQ(pc.served, pc.offered + pc.refilled);
      EXPECT_EQ(pc.refilled, ev.refilled);
      EXPECT_EQ(pc.refused, ev.refused);
      EXPECT_EQ(pc.served, ev.served);
      EXPECT_EQ(pc.completion_sum, ev.completion_sum);
      EXPECT_EQ(pc.render, ev.render);
      EXPECT_TRUE(pc.image == ev.image) << "checkpoint images differ";
    }
  }
}

}  // namespace
