// Sharded-execution equivalence legs: one simulated machine advanced by the
// drain engine must produce byte-identical results at every shard width
// and epoch length. Each leg runs the same configuration at IMA-style
// widths 1, 2 and 4 or 8 and compares cycle counts, StatRegistry
// snapshots, completion-stream checksums and (where armed) the reliability
// corruption ledger — across RAIDR row refresh, PARA RowHammer mitigation,
// a closed loop and the PNM stack's sharded stream. The open-loop legs run
// the full matrix of shard plans (none, 1, 2, 3, 8), epochs (997, 8192) and
// clock modes against the unsharded per-cycle reference, and compare the
// end cycle, the energy charged up to it and the checkpoint image too. The width
// matrix over all 8 scheduler kinds lives in SoaGoldenMatrix
// (soa_kernel_test.cc), which also pins its digests. A separate leg proves
// IMA_SHARDS composes with IMA_JOBS: nested inside a sweep job the drain
// collapses to one host thread (no pool oversubscription) with, by
// construction, the same bytes.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/ckpt.hh"
#include "common/clock.hh"
#include "harness/pool.hh"
#include "harness/sweep.hh"
#include "mem/memsys.hh"
#include "mem/refresh.hh"
#include "mem/rowhammer.hh"
#include "noc/mesh.hh"
#include "pnm/stack.hh"
#include "reliability/engine.hh"

#include "oracle.hh"

namespace ima {
namespace {

using namespace oracle;

/// One leg of the drain-invariance matrix: the oracle Outcome plus what a
/// caller continuing from the returned cycle sees — the energy charged up
/// to it and the checkpoint image.
struct Ends {
  Outcome out;
  PicoJoule energy = 0;
  std::vector<std::uint8_t> image;
};

/// Runs `drain(sys, out)` (returning the end cycle) on a system from
/// `make()` under every shard plan {0, 1, 2, 3, 8} x epoch {997, 8192} x clock
/// mode, and requires each leg to equal the unsharded per-cycle reference
/// in end cycle, completion checksum, statistics, total_energy(end) and
/// ckpt::capture image.
template <typename Make, typename Drain>
void expect_drain_invariant(const std::string& point, const Make& make, const Drain& drain) {
  const auto run = [&](unsigned shards, Cycle epoch, sim::ClockMode mode) {
    const std::unique_ptr<mem::MemorySystem> sys = make();
    sys->set_shards(shards, epoch);
    sys->set_clock_mode(mode);
    Ends e;
    e.out.cycles = drain(*sys, e.out);
    EXPECT_TRUE(sys->idle()) << point;
    EXPECT_FALSE(sys->last_drain_clipped()) << point;
    e.out.snapshot = render(*sys);
    e.energy = sys->total_energy(e.out.cycles);
    e.image = ckpt::capture(*sys).payload;
    return e;
  };
  const Ends ref = run(0, 0, sim::ClockMode::PerCycle);
  EXPECT_GT(ref.out.cycles, 0u) << point;
  // Width 3 divides no power-of-two channel count, so its workers claim
  // uneven shares of the blocks.
  for (const unsigned shards : {0u, 1u, 2u, 3u, 8u}) {
    for (const Cycle epoch : {Cycle{997}, Cycle{8192}}) {
      for (const auto mode : {sim::ClockMode::PerCycle, sim::ClockMode::SkipAhead}) {
        const Ends e = run(shards, epoch, mode);
        const std::string leg = point + " shards " + std::to_string(shards) + " epoch " +
                                std::to_string(epoch) + " " + sim::to_string(mode);
        EXPECT_EQ(e.out.cycles, ref.out.cycles) << leg;
        EXPECT_EQ(e.out.checksum, ref.out.checksum) << leg;
        EXPECT_EQ(e.out.snapshot, ref.out.snapshot) << leg;
        EXPECT_EQ(e.energy, ref.energy) << leg;
        EXPECT_TRUE(e.image == ref.image) << leg << ": checkpoint image differs";
      }
    }
  }
}

TEST(Shard, EpochSizeDoesNotChangeTheBytesEither) {
  // Open-loop drains are exact at any epoch: barrier placement only decides
  // when mailboxes drain, never what they contain, in what order, or where
  // the drain ends. (The width matrix over every scheduler kind is
  // SoaGoldenMatrix's.)
  expect_drain_invariant(
      "uniform",
      [] {
        mem::ControllerConfig ctrl;
        ctrl.sched = mem::SchedKind::FrFcfs;
        return std::make_unique<mem::MemorySystem>(matrix_dram(8), ctrl);
      },
      [](mem::MemorySystem& sys, Outcome& out) {
        return drain_hashed(sys, 300, 0xC0FFEEull + static_cast<int>(mem::SchedKind::FrFcfs),
                            out);
      });
  // Skewed: channel 0 carries 3000 ops and the others 10 each, so three
  // channels finish early and nap through power-down into self-refresh
  // while channel 0 works on across several barriers. Their groups must
  // catch up to the exact finish, not to an epoch edge.
  expect_drain_invariant(
      "skewed",
      [] {
        mem::ControllerConfig ctrl;
        ctrl.powerdown_timeout = 300;
        ctrl.selfrefresh_timeout = 3000;
        return std::make_unique<mem::MemorySystem>(matrix_dram(4), ctrl);
      },
      [](mem::MemorySystem& sys, Outcome& out) {
        auto src = mem::hashed_source(sys, 3000, 0x5CE3ull, kCores, &out.checksum);
        src.next = [next = src.next, n = std::vector<std::uint64_t>(sys.num_channels(), 0)](
                       std::uint32_t ch, Cycle now, mem::Request& r) mutable {
          if (ch != 0 && n[ch]++ >= 10) return false;
          return next(ch, now, r);
        };
        const Cycle end = sys.drain_sourced(src, 0);
        std::uint64_t sr = 0;
        for (std::uint32_t c = 1; c < sys.num_channels(); ++c)
          sr += sys.controller(c).stats().selfrefreshes;
        EXPECT_GT(sr, 0u) << "the idle channels must reach self-refresh";
        return end;
      });
}

TEST(Shard, SourcedDrainPerCycleMatchesSkipAhead) {
  // The sharded drain wakes a channel on its own calendar: a feeder holding
  // a future-dated request at min(arrival, next_event), one whose queue
  // just freed a slot at the next cycle, and one still rejected at the
  // controller's next_event. PerCycle feeds and ticks every channel every
  // cycle, so it is the reference those wakes must match exactly. Two
  // streams: a saturating hashed one (every request due at once, so the
  // feeders sit on full queues) and a sparse time-dated one whose bursts
  // overrun a per-core read quota and whose jittered arrivals hold
  // requests back.
  constexpr std::uint64_t kBurst = 96, kBursts = 3;
  constexpr Cycle kGap = 4000;
  expect_drain_invariant(
      "saturating",
      [] { return std::make_unique<mem::MemorySystem>(matrix_dram(8), mem::ControllerConfig{}); },
      [](mem::MemorySystem& sys, Outcome& out) { return drain_hashed(sys, 200, 0x5A7ull, out); });
  expect_drain_invariant(
      "dated",
      [] {
        mem::ControllerConfig ctrl;
        ctrl.per_core_read_quota = 12;
        return std::make_unique<mem::MemorySystem>(matrix_dram(8), ctrl);
      },
      [&](mem::MemorySystem& sys, Outcome& out) {
        std::vector<std::uint64_t> cursor(sys.num_channels(), 0);
        mem::MemorySystem::ChannelSource src;
        src.next = [&](std::uint32_t ch, Cycle, mem::Request& r) {
          std::uint64_t& i = cursor[ch];
          if (i >= kBurst * kBursts) return false;
          const auto& g = sys.dram_config().geometry;
          const std::uint64_t h = harness::job_seed(0xDA7Eull, ch * 0x10001ull + i);
          dram::Coord c;
          c.channel = ch;
          c.bank = static_cast<std::uint32_t>(h >> 8) % g.banks;
          c.row = static_cast<std::uint32_t>(h >> 16) % g.rows_per_bank();
          c.column = static_cast<std::uint32_t>(h >> 40) % g.columns;
          r = mem::Request{};
          r.addr = sys.mapper().encode(c);
          r.type = i % 5 == 4 ? AccessType::Write : AccessType::Read;
          r.core = static_cast<std::uint32_t>(i % kCores);
          r.arrive = (i / kBurst) * kGap + h % 300;
          ++i;
          return true;
        };
        src.on_complete = [&out](std::uint32_t ch, const mem::Request& done) {
          out.checksum = mem::fold_completion(out.checksum, ch, done);
        };
        return sys.drain_sourced(src, 0);
      });
}

TEST(Shard, MailboxMergeBreaksCompletionTiesByChannel) {
  // Two channels fed the same request stream complete in lockstep, so
  // every completion cycle carries one completion per channel. The drain
  // without a plan fires channel 0's callback before channel 1's in each
  // such cycle (it ticks channels in order); the barrier's merge of the
  // two mailboxes must deliver the same sequence at every width and epoch.
  using Seen = std::pair<std::uint32_t, Cycle>;  // (channel, completion cycle)
  const auto run = [](unsigned shards, Cycle epoch) {
    mem::MemorySystem sys(matrix_dram(2), mem::ControllerConfig{});
    sys.set_shards(shards, epoch);
    std::vector<std::uint64_t> cursor(2, 0);
    std::vector<Seen> seen;
    mem::MemorySystem::ChannelSource src;
    src.next = [&](std::uint32_t ch, Cycle, mem::Request& r) {
      std::uint64_t& i = cursor[ch];
      if (i >= 400) return false;
      const auto& g = sys.dram_config().geometry;
      const std::uint64_t h = harness::job_seed(0x713ull, i);  // not keyed on ch
      dram::Coord c;
      c.channel = ch;
      c.bank = static_cast<std::uint32_t>(h >> 8) % g.banks;
      c.row = static_cast<std::uint32_t>(h >> 16) % g.rows_per_bank();
      c.column = static_cast<std::uint32_t>(h >> 40) % g.columns;
      r = mem::Request{};
      r.addr = sys.mapper().encode(c);
      r.type = i % 4 == 3 ? AccessType::Write : AccessType::Read;
      ++i;
      return true;
    };
    src.on_complete = [&seen](std::uint32_t ch, const mem::Request& done) {
      seen.emplace_back(ch, done.complete);
    };
    EXPECT_GT(sys.drain_sourced(src, 0), 0u);
    return seen;
  };
  const std::vector<Seen> ref = run(0, 0);
  ASSERT_EQ(ref.size(), 800u);
  std::size_t ties = 0;
  for (std::size_t i = 1; i < ref.size(); ++i) {
    const auto& [ch0, at0] = ref[i - 1];
    const auto& [ch1, at1] = ref[i];
    ASSERT_LE(at0, at1) << i;
    if (at0 != at1) continue;
    EXPECT_LE(ch0, ch1) << "channel 1 before channel 0 at cycle " << at1;
    ties += ch0 != ch1;
  }
  EXPECT_EQ(ties, 400u) << "the mirrored channels must complete in lockstep";
  for (const unsigned shards : {1u, 2u})
    for (const Cycle epoch : {Cycle{64}, Cycle{997}})
      EXPECT_EQ(run(shards, epoch), ref) << "shards " << shards << " epoch " << epoch;
}

TEST(Shard, RaidrRefreshAndParaMitigationShardIdentically) {
  const auto run = [](unsigned shards) {
    const auto dram_cfg = matrix_dram(4);
    mem::ControllerConfig ctrl;
    mem::MemorySystem sys(dram_cfg, ctrl);
    const auto& g = dram_cfg.geometry;
    const auto profile =
        mem::RetentionProfile::generate(std::uint64_t{g.rows_per_bank()} * g.banks * g.ranks,
                                        0.02, 0.1, 11);
    for (std::uint32_t c = 0; c < sys.num_channels(); ++c) {
      sys.controller(c).set_refresh_policy(
          mem::make_raidr(dram_cfg, profile, /*force_preall=*/true));
      sys.controller(c).set_rowhammer(mem::make_para(0.5, 77 + c));
    }
    sys.set_shards(shards);
    return run_hashed(sys, 600, 0xAB1Dull);
  };
  const Outcome w1 = run(1);
  const Outcome w2 = run(2);
  const Outcome w4 = run(4);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w4);
  // PARA at p=0.5 over 2400 accesses must actually have refreshed victims —
  // otherwise this leg proves nothing about mitigation determinism.
  EXPECT_NE(w1.snapshot.find("victim_refreshes"), std::string::npos);
}

TEST(Shard, ReliabilityCorruptionLedgerIsWidthInvariant) {
  const auto run = [](unsigned shards) {
    auto dram_cfg = matrix_dram(4);
    mem::ControllerConfig ctrl;
    ctrl.reliability.enabled = true;
    ctrl.reliability.ecc = reliability::EccKind::Secded;
    ctrl.reliability.seed = 5;
    mem::MemorySystem sys(dram_cfg, ctrl);
    sys.set_shards(shards);

    // Pre-corrupt lines in every channel (coordinator side), then read them
    // back through the sharded drain: decode outcomes, ledger state and the
    // post-run memory image must not depend on the width.
    const auto& g = dram_cfg.geometry;
    for (std::uint32_t ch = 0; ch < sys.num_channels(); ++ch) {
      auto* eng = sys.controller(ch).reliability_engine();
      for (std::uint32_t row : {10u, 20u, 30u}) {
        const dram::Coord c{ch, 0, ch % g.banks, row, row % g.columns};
        sys.poke_u64(sys.mapper().encode(c), 0xF00D0000ull + ch * 100 + row);
        eng->ensure_encoded(c);
        eng->injector().corrupt_line_bits(c, row == 20 ? 2 : 1);
      }
    }
    Outcome out;
    std::vector<std::uint64_t> cursor(sys.num_channels(), 0);
    mem::MemorySystem::ChannelSource src;
    src.next = [&sys, &cursor, &g](std::uint32_t ch, Cycle, mem::Request& r) {
      static constexpr std::uint32_t kRows[] = {10, 20, 30};
      std::uint64_t& i = cursor[ch];
      if (i >= 3) return false;
      const std::uint32_t row = kRows[i];
      r = mem::Request{};
      r.addr = sys.mapper().encode(dram::Coord{ch, 0, ch % g.banks, row, row % g.columns});
      ++i;
      return true;
    };
    out.cycles = sys.drain_sourced(src, 0);
    // Fold ledger + stats + image into the digest.
    for (std::uint32_t ch = 0; ch < sys.num_channels(); ++ch) {
      const auto* eng = sys.controller(ch).reliability_engine();
      const auto& s = eng->stats();
      out.checksum = out.checksum * 31 + s.ce_words * 7 + s.due_events * 11 +
                     s.sdc_reads * 13 + eng->injector().corrupt_lines() * 17 +
                     eng->injector().total_bits_injected();
      for (std::uint32_t row : {10u, 20u, 30u})
        out.checksum ^= sys.peek_u64(sys.mapper().encode(
            dram::Coord{ch, 0, ch % g.banks, row, row % g.columns}));
    }
    out.snapshot = render(sys);
    return out;
  };
  const Outcome w1 = run(1);
  const Outcome w2 = run(2);
  const Outcome w4 = run(4);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w4);
}

TEST(Shard, PnmStackStreamIsWidthInvariant) {
  const auto run = [](unsigned shards) {
    pnm::PnmConfig cfg;
    cfg.vaults = 8;
    pnm::PnmStack stack(cfg);
    return stack.run_stream(/*ops_per_vault=*/200, /*seed=*/3, shards);
  };
  const auto w1 = run(1);
  const auto w2 = run(2);
  const auto w8 = run(8);
  EXPECT_EQ(w1.cycles, w2.cycles);
  EXPECT_EQ(w1.cycles, w8.cycles);
  EXPECT_EQ(w1.checksum, w2.checksum);
  EXPECT_EQ(w1.checksum, w8.checksum);
  EXPECT_EQ(w1.energy, w2.energy);
  EXPECT_EQ(w1.energy, w8.energy);
  EXPECT_EQ(w1.reads, 8u * 150u);
  EXPECT_EQ(w1.writes, 8u * 50u);
  EXPECT_EQ(w1.pim_ops, 8u * 12u);
}

// A stream that can never drain must fail loudly at run_stream's cycle limit,
// not return a truncated result. A zero-slot read queue rejects every read,
// so the feeders wait forever on the first one.
TEST(Shard, PnmStreamClipThrows) {
  // Per-cycle clocking would walk all 2e9 cycles of the limit one by one.
  if (sim::default_clock_mode() == sim::ClockMode::PerCycle)
    GTEST_SKIP() << "walks the 2e9-cycle limit; runs under skip-ahead only";
  pnm::PnmConfig cfg;
  cfg.vaults = 4;
  cfg.vault_dram.geometry.banks = 8;
  cfg.vault_dram.geometry.subarrays = 4;
  cfg.vault_dram.geometry.rows_per_subarray = 256;
  cfg.vault_dram.geometry.columns = 32;
  cfg.ctrl.read_queue_size = 0;
  pnm::PnmStack stack(cfg);
  try {
    (void)stack.run_stream(/*ops_per_vault=*/64, /*seed=*/1, /*shards=*/1);
    FAIL() << "an undrainable stream returned";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("streams not drained at the 2000000000-cycle limit"),
              std::string::npos)
        << e.what();
  }
}

TEST(Shard, ClosedLoopEnqueueDrainMatchesAcrossWidths) {
  // The System-style closed loop: enqueue on the coordinator, drain, let
  // the (mailbox-deferred) callback enqueue the next dependent request.
  const auto run = [](unsigned shards) {
    mem::MemorySystem sys(matrix_dram(8), mem::ControllerConfig{});
    sys.set_shards(shards, sim::conservative_epoch({sys.min_callback_latency()}, 0));
    Outcome out;
    Cycle now = 0;
    for (int i = 0; i < 40; ++i) {
      const auto& g = sys.dram_config().geometry;
      const std::uint64_t h = harness::job_seed(9, static_cast<std::size_t>(i));
      dram::Coord c;
      c.channel = static_cast<std::uint32_t>(h >> 4) % g.channels;
      c.bank = static_cast<std::uint32_t>(h >> 8) % g.banks;
      c.row = static_cast<std::uint32_t>(h >> 16) % g.rows_per_bank();
      mem::Request r;
      r.addr = sys.mapper().encode(c);
      r.arrive = now;
      EXPECT_TRUE(sys.enqueue(r, [&out](const mem::Request& done) {
        out.checksum = (out.checksum * 16777619) ^ done.complete;
      }));
      now = sys.drain(now);
    }
    out.cycles = now;
    out.snapshot = render(sys);
    return out;
  };
  const auto w1 = run(1);
  const auto w4 = run(4);
  const auto w8 = run(8);
  EXPECT_EQ(w1, w4);
  EXPECT_EQ(w1, w8);
}

TEST(Shard, ComposesWithSweepJobsWithoutOversubscription) {
  // Four sweep jobs, each draining its own 8-shard memory system. Nested
  // inside a multi-worker sweep the drain must collapse to one host thread
  // per job (no shards x jobs thread explosion) — and collapse is invisible
  // in the results.
  const auto job = [](const int& seed) {
    mem::MemorySystem sys(matrix_dram(8), mem::ControllerConfig{});
    sys.set_shards(8);
    return run_hashed(sys, 150, static_cast<std::uint64_t>(seed));
  };
  const std::vector<int> configs = {1, 2, 3, 4};
  harness::SweepOptions serial;
  serial.jobs = 1;
  harness::SweepOptions wide;
  wide.jobs = 4;
  const auto ref = harness::run_sweep(configs, job, serial);
  const auto par = harness::run_sweep(configs, job, wide);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(par.ok());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(ref.at(i), par.at(i));
    // Serial sweep runs jobs inline (not a pool region): shards fan out.
    EXPECT_EQ(ref.at(i).workers_used, 8u);
    // Nested in the 4-worker pool: collapsed to 1, same bytes.
    EXPECT_EQ(par.at(i).workers_used, 1u);
  }
}

TEST(Shard, TraceSinkAndSharedVictimModelForceSerialEpochs) {
  // Shared-state guards: same results, one host thread.
  mem::MemorySystem sys(matrix_dram(4), mem::ControllerConfig{});
  mem::HammerVictimModel shared(sys.dram_config().geometry, 64);
  sys.controller(0).set_victim_model(&shared);
  sys.controller(1).set_victim_model(&shared);
  sys.set_shards(4);
  EXPECT_EQ(run_hashed(sys, 50, 21).workers_used, 1u);
}

TEST(Shard, ConservativeEpochDerivation) {
  // min positive latency wins; zeros are ignored; empty/all-zero falls back.
  EXPECT_EQ(sim::conservative_epoch({0, 20, 6}, 100), 6u);
  EXPECT_EQ(sim::conservative_epoch({}, 100), 100u);
  EXPECT_EQ(sim::conservative_epoch({0, 0}, 0), 1u);
  EXPECT_GT(sim::default_shard_epoch(), 0u);
  // The memsys term is CL + BL — the soonest a completion can round-trip.
  const mem::MemorySystem sys(matrix_dram(1), mem::ControllerConfig{});
  EXPECT_EQ(sys.min_callback_latency(),
            sys.dram_config().timings.cl + sys.dram_config().timings.bl);
  // The NoC term: nothing crosses the mesh in under one hop.
  EXPECT_GE(noc::NocConfig{}.min_hop_latency(), 1u);
}

TEST(Shard, DefaultShardsReadsEnvironmentContract) {
  // Not a pool region here; on_worker() must be false on the main thread.
  EXPECT_FALSE(harness::WorkerPool::on_worker());
  // default_shards() is capped and non-throwing whatever the env says.
  EXPECT_LE(harness::default_shards(), 64u);
}

}  // namespace
}  // namespace ima
