// Checkpoint/restore golden matrix + corruption round-trips.
//
// The restore-exactness contract (DESIGN.md "Checkpoint/restore"): a run
// saved at a quiescent point C and restored into a freshly constructed
// twin, then continued, is byte-identical — cycle counts, completion-stream
// checksums, full StatRegistry renderings, reliability ledgers — to the
// same run continued without the save/restore detour. The matrix drives
// that across all 8 scheduler kinds, SALP subarray timing, RAIDR + PARA,
// a borrowed victim model, the reliability engine's corruption ledger, the
// serving facade's response queues, and the full System hierarchy (cores,
// caches, prefetchers), with the checkpoint crossing shard widths (save at
// IMA_SHARDS-style width 1, restore at 8, and vice versa).
//
// The corruption suite proves a damaged image can never half-restore: the
// sealed blob's magic, version, length and CRC are verified before any
// component load begins, and ckpt::restore checks every section, config
// fingerprint and container length before it loads anything. Every kind of
// file damage, a config mismatch deep in the image and a crafted oversized
// length are therefore typed CheckpointErrors, and the target system is
// left exactly as constructed.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/ckpt.hh"
#include "harness/sweep.hh"
#include "learn/qlearn.hh"
#include "mem/memsys.hh"
#include "mem/refresh.hh"
#include "mem/rowhammer.hh"
#include "obs/stat_registry.hh"
#include "reliability/engine.hh"
#include "service/facade.hh"
#include "sim/system.hh"
#include "workloads/stream.hh"

#include "oracle.hh"

namespace ima {
namespace {

using namespace oracle;

using Factory = std::function<std::unique_ptr<mem::MemorySystem>()>;

/// Drives `ops1` accesses per channel, then either keeps going on the same
/// system (reference) or round-trips the state through an in-memory
/// checkpoint into a freshly built twin (restored leg), then drives `ops2`
/// more. `shards_before`/`shards_after` arm the shard plan on each side —
/// the image carries no plan, so a width-1 save restores at width 8.
Outcome run_two_segments(const Factory& make, std::uint64_t seed, unsigned shards_before,
                         unsigned shards_after, bool through_checkpoint) {
  Outcome out;
  auto a = make();
  a->set_shards(shards_before);
  const Cycle mid = drain_hashed(*a, 200, seed, out);
  EXPECT_TRUE(a->idle());

  mem::MemorySystem* target = a.get();
  std::unique_ptr<mem::MemorySystem> b;
  if (through_checkpoint) {
    const ckpt::Blob blob = ckpt::capture(*a);
    b = make();
    EXPECT_NO_THROW(ckpt::restore(*b, blob));  // incl. no trailing bytes
    target = b.get();
    a.reset();  // the original is gone; only the image survives
  }
  target->set_shards(shards_after);
  out.cycles = drain_hashed(*target, 150, seed ^ 0x5EEDull, out, mid);
  out.snapshot = render(*target);
  return out;
}

/// One matrix point: reference vs. restored at widths {1->1, 1->8, 8->1}.
void expect_restore_exact(const Factory& make, std::uint64_t seed, const std::string& label) {
  const Outcome ref = run_two_segments(make, seed, 1, 1, false);
  EXPECT_GT(ref.cycles, 0u);
  EXPECT_NE(ref.checksum, 0u);
  const Outcome r11 = run_two_segments(make, seed, 1, 1, true);
  const Outcome r18 = run_two_segments(make, seed, 1, 8, true);
  const Outcome r81 = run_two_segments(make, seed, 8, 1, true);
  EXPECT_EQ(ref, r11) << label << " (save@1 restore@1)";
  EXPECT_EQ(ref, r18) << label << " (save@1 restore@8)";
  EXPECT_EQ(ref, r81) << label << " (save@8 restore@1)";
}

TEST(CkptMatrix, AllSchedulerKindsRestoreByteIdentically) {
  const mem::SchedKind kinds[] = {
      mem::SchedKind::Fcfs,  mem::SchedKind::FrFcfs, mem::SchedKind::FrFcfsCap,
      mem::SchedKind::ParBs, mem::SchedKind::Atlas,  mem::SchedKind::Tcm,
      mem::SchedKind::Bliss, mem::SchedKind::Rl};
  for (const auto kind : kinds) {
    const Factory make = [kind] {
      mem::ControllerConfig ctrl;
      ctrl.sched = kind;
      return std::make_unique<mem::MemorySystem>(matrix_dram(8), ctrl);
    };
    expect_restore_exact(make, 0xC0FFEEull + static_cast<int>(kind),
                         std::string("scheduler ") + mem::to_string(kind));
  }
}

TEST(CkptMatrix, SalpTimingStateRestores) {
  const Factory make = [] {
    return std::make_unique<mem::MemorySystem>(matrix_dram(4, /*salp=*/true),
                                               mem::ControllerConfig{});
  };
  expect_restore_exact(make, 0x5A1Full, "SALP");
}

TEST(CkptMatrix, RaidrRefreshAndParaMitigationRestore) {
  const Factory make = [] {
    const auto dram_cfg = matrix_dram(4);
    const auto& g = dram_cfg.geometry;
    auto sys = std::make_unique<mem::MemorySystem>(dram_cfg, mem::ControllerConfig{});
    const auto profile = mem::RetentionProfile::generate(
        std::uint64_t{g.rows_per_bank()} * g.banks * g.ranks, 0.02, 0.1, 11);
    for (std::uint32_t c = 0; c < sys->num_channels(); ++c) {
      sys->controller(c).set_refresh_policy(
          mem::make_raidr(dram_cfg, profile, /*force_preall=*/true));
      sys->controller(c).set_rowhammer(mem::make_para(0.5, 77 + c));
    }
    return sys;
  };
  expect_restore_exact(make, 0xAB1Dull, "RAIDR+PARA");
}

TEST(CkptMatrix, BorrowedVictimModelTravelsWithTheImage) {
  // The victim model is installed by the embedding harness, shared across
  // all channels, and only *borrowed* by the controllers — yet its
  // disturbance counters are part of the machine state, so the image
  // carries each distinct model once and restore rehydrates the twin's.
  struct Rig {
    std::unique_ptr<mem::MemorySystem> sys;
    std::unique_ptr<mem::HammerVictimModel> vm;
  };
  const auto make_rig = [] {
    Rig r;
    const auto dram_cfg = matrix_dram(2);
    mem::ControllerConfig ctrl;
    ctrl.sched = mem::SchedKind::Fcfs;  // every request ACTs: maximal disturbance
    r.sys = std::make_unique<mem::MemorySystem>(dram_cfg, ctrl);
    r.vm = std::make_unique<mem::HammerVictimModel>(dram_cfg.geometry, 50);
    for (std::uint32_t c = 0; c < r.sys->num_channels(); ++c)
      r.sys->controller(c).set_victim_model(r.vm.get());
    r.sys->set_shards(1);
    return r;
  };

  const auto run = [&](bool through_checkpoint) {
    Outcome out;
    Rig a = make_rig();
    const Cycle mid = drain_hashed(*a.sys, 300, 0xBADull, out);
    Rig b;
    Rig* tgt = &a;
    if (through_checkpoint) {
      const ckpt::Blob blob = ckpt::capture(*a.sys);
      b = make_rig();
      EXPECT_NO_THROW(ckpt::restore(*b.sys, blob));
      tgt = &b;
    }
    out.cycles = drain_hashed(*tgt->sys, 300, 0xF1ull, out, mid);
    out.snapshot = render(*tgt->sys);
    out.checksum ^= tgt->vm->flips() * 0x9E37ull;
    return out;
  };
  const Outcome ref = run(false);
  const Outcome restored = run(true);
  EXPECT_EQ(ref, restored);
}

TEST(CkptMatrix, ReliabilityLedgerAndDataPagesRestore) {
  const Factory make = [] {
    auto dram_cfg = matrix_dram(4);
    mem::ControllerConfig ctrl;
    ctrl.reliability.enabled = true;
    ctrl.reliability.ecc = reliability::EccKind::Secded;
    ctrl.reliability.seed = 5;
    auto sys = std::make_unique<mem::MemorySystem>(dram_cfg, ctrl);
    sys->set_shards(1);
    return sys;
  };
  // Corrupt lines on the original only: the twin must inherit the damage —
  // pages, check bytes and ledger — purely through the image.
  const auto run = [&](bool through_checkpoint) {
    Outcome out;
    auto a = make();
    const auto& g = a->dram_config().geometry;
    for (std::uint32_t ch = 0; ch < a->num_channels(); ++ch) {
      auto* eng = a->controller(ch).reliability_engine();
      for (std::uint32_t row : {10u, 20u, 30u}) {
        const dram::Coord c{ch, 0, ch % g.banks, row, row % g.columns};
        a->poke_u64(a->mapper().encode(c), 0xF00D0000ull + ch * 100 + row);
        eng->ensure_encoded(c);
        eng->injector().corrupt_line_bits(c, row == 20 ? 2 : 1);
      }
    }
    mem::MemorySystem* tgt = a.get();
    std::unique_ptr<mem::MemorySystem> b;
    if (through_checkpoint) {
      const ckpt::Blob blob = ckpt::capture(*a);
      b = make();
      EXPECT_NO_THROW(ckpt::restore(*b, blob));
      tgt = b.get();
      a.reset();
    }
    // Read the corrupted rows back through the drain: decode outcomes and
    // the post-run image must match with or without the detour.
    const auto& gg = tgt->dram_config().geometry;
    std::vector<std::uint64_t> cursor(tgt->num_channels(), 0);
    mem::MemorySystem::ChannelSource src;
    src.next = [tgt, &cursor, &gg](std::uint32_t ch, Cycle, mem::Request& r) {
      static constexpr std::uint32_t kRows[] = {10, 20, 30};
      std::uint64_t& i = cursor[ch];
      if (i >= 3) return false;
      const std::uint32_t row = kRows[i];
      r = mem::Request{};
      r.addr = tgt->mapper().encode(dram::Coord{ch, 0, ch % gg.banks, row, row % gg.columns});
      ++i;
      return true;
    };
    out.cycles = tgt->drain_sourced(src, 0);
    for (std::uint32_t ch = 0; ch < tgt->num_channels(); ++ch) {
      const auto* eng = tgt->controller(ch).reliability_engine();
      const auto& s = eng->stats();
      out.checksum = out.checksum * 31 + s.ce_words * 7 + s.due_events * 11 +
                     s.sdc_reads * 13 + eng->injector().corrupt_lines() * 17 +
                     eng->injector().total_bits_injected();
      for (std::uint32_t row : {10u, 20u, 30u})
        out.checksum ^= tgt->peek_u64(
            tgt->mapper().encode(dram::Coord{ch, 0, ch % gg.banks, row, row % gg.columns}));
    }
    out.snapshot = render(*tgt);
    return out;
  };
  const Outcome ref = run(false);
  const Outcome restored = run(true);
  EXPECT_EQ(ref, restored);
}

TEST(CkptMatrix, ServingFacadeResponseQueuesRestore) {
  auto dram_cfg = matrix_dram(2);
  const auto make = [&] { return std::make_unique<mem::MemorySystem>(dram_cfg, mem::ControllerConfig{}); };

  const auto run = [&](bool through_checkpoint) {
    auto sysa = make();
    auto svca = std::make_unique<service::MemoryService>(*sysa);
    Cycle now = 0;
    const auto& g = sysa->dram_config().geometry;
    for (std::uint32_t i = 0; i < 40; ++i) {
      const dram::Coord c{i % g.channels, 0, i % g.banks, (i * 7) % g.rows_per_bank(),
                          i % g.columns};
      mem::Request r;
      r.addr = sysa->mapper().encode(c);
      r.type = i % 5 == 0 ? AccessType::Write : AccessType::Read;
      const std::uint32_t ch = svca->channel_of(r.addr);
      if (svca->is_full(ch, r)) now = svca->drain_to(now);
      svca->push(ch, r, now);
    }
    // Deliver everything but *leave the responses unpopped*: the queues
    // themselves are the state under test.
    now = svca->drain_to(now);

    mem::MemorySystem* sys = sysa.get();
    service::MemoryService* svc = svca.get();
    std::unique_ptr<mem::MemorySystem> sysb;
    std::unique_ptr<service::MemoryService> svcb;
    if (through_checkpoint) {
      const ckpt::Blob sys_image = ckpt::capture(*sysa);
      const ckpt::Blob svc_image = ckpt::capture(*svca);
      sysb = make();
      svcb = std::make_unique<service::MemoryService>(*sysb);
      EXPECT_NO_THROW(ckpt::restore(*sysb, sys_image));
      EXPECT_NO_THROW(ckpt::restore(*svcb, svc_image));
      sys = sysb.get();
      svc = svcb.get();
    }
    // Pop the world: the delivered-but-unpopped responses must replay in
    // the identical canonical order with identical stamps.
    std::uint64_t digest = svc->pushed() * 3 + svc->completed() * 7 + svc->in_flight() * 11;
    for (std::uint32_t ch = 0; ch < svc->num_channels(); ++ch) {
      while (!svc->is_empty(ch)) {
        const mem::Request& r = svc->top(ch);
        digest = mem::fold_completion(digest, ch, r);
        svc->pop(ch);
      }
    }
    return digest ^ std::hash<std::string>{}(render(*sys));
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- full System hierarchy -------------------------------------------------

std::vector<std::unique_ptr<workloads::AccessStream>> matrix_streams(std::uint32_t cores) {
  std::vector<std::unique_ptr<workloads::AccessStream>> v;
  for (std::uint32_t i = 0; i < cores; ++i) {
    workloads::StreamParams p;
    p.footprint = 1 << 20;
    p.seed = 7 + i;
    if (i % 2 == 0) {
      v.push_back(workloads::make_zipf(p, 0.8));
    } else {
      v.push_back(workloads::make_streaming(p));
    }
  }
  return v;
}

sim::SystemConfig matrix_system_config(sim::PrefetchKind pf) {
  sim::SystemConfig cfg;
  cfg.num_cores = 2;
  cfg.core.instr_limit = 60'000;
  cfg.dram.geometry.channels = 2;
  cfg.dram.geometry.banks = 4;
  cfg.dram.geometry.subarrays = 2;
  cfg.dram.geometry.rows_per_subarray = 256;
  cfg.ctrl.num_cores = 2;
  cfg.prefetch = pf;
  return cfg;
}

std::string render_system(const sim::System& sys) {
  obs::StatRegistry reg;
  sys.register_stats(reg);
  return reg.snapshot().render();
}

/// run-to-C / drain-to-quiescence / (maybe checkpoint+restore) / run-to-end.
/// The reference performs the identical drain so both trajectories are the
/// same machine program; the only difference is the detour through bytes.
std::string run_system(sim::PrefetchKind pf, bool through_checkpoint) {
  const auto cfg = matrix_system_config(pf);
  auto a = std::make_unique<sim::System>(cfg, matrix_streams(cfg.num_cores));
  a->run(40'000);
  a->memory().drain(a->now());

  sim::System* tgt = a.get();
  std::unique_ptr<sim::System> b;
  if (through_checkpoint) {
    const ckpt::Blob blob = ckpt::capture(*a);
    b = std::make_unique<sim::System>(cfg, matrix_streams(cfg.num_cores));
    ckpt::restore(*b, blob);
    tgt = b.get();
    a.reset();
  }
  const Cycle end = tgt->run(4'000'000);
  std::ostringstream os;
  os << "end=" << end << "\n" << render_system(*tgt);
  const auto e = tgt->energy();
  os << "energy=" << e.total() << " movement=" << e.movement_fraction() << "\n";
  for (const double ipc : tgt->core_ipcs()) os << "ipc=" << ipc << "\n";
  return os.str();
}

TEST(CkptSystem, FullHierarchyRestoresByteIdentically) {
  for (const auto pf : {sim::PrefetchKind::None, sim::PrefetchKind::Stride,
                        sim::PrefetchKind::FilteredStride, sim::PrefetchKind::Feedback}) {
    const std::string ref = run_system(pf, false);
    const std::string restored = run_system(pf, true);
    EXPECT_EQ(ref, restored) << "prefetcher " << sim::to_string(pf);
  }
}

TEST(CkptSystem, FileRoundTripMatchesInMemory) {
  const auto cfg = matrix_system_config(sim::PrefetchKind::Stride);
  auto a = std::make_unique<sim::System>(cfg, matrix_streams(cfg.num_cores));
  a->run(40'000);
  a->memory().drain(a->now());
  const std::string path = testing::TempDir() + "ckpt_roundtrip.ckpt";
  a->save(path);

  auto b = std::make_unique<sim::System>(cfg, matrix_streams(cfg.num_cores));
  b->restore(path);
  EXPECT_EQ(render_system(*a), render_system(*b));
  EXPECT_EQ(a->now(), b->now());
  std::remove(path.c_str());
}

// ---- corruption round-trips -----------------------------------------------

ckpt::ErrorKind restore_error(const sim::SystemConfig& cfg,
                              const std::vector<std::uint8_t>& bytes) {
  const std::string path = testing::TempDir() + "ckpt_corrupt.ckpt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  sim::System victim(cfg, matrix_streams(cfg.num_cores));
  ckpt::ErrorKind kind = ckpt::ErrorKind::Io;
  bool threw = false;
  try {
    victim.restore(path);
  } catch (const ckpt::CheckpointError& e) {
    threw = true;
    kind = e.kind();
  }
  EXPECT_TRUE(threw) << "corrupt image restored without error";
  // Never half-restored: the victim is still the pristine fresh machine.
  sim::System pristine(cfg, matrix_streams(cfg.num_cores));
  EXPECT_EQ(render_system(victim), render_system(pristine));
  EXPECT_EQ(victim.now(), 0u);
  std::remove(path.c_str());
  return kind;
}

TEST(CkptCorruption, DamageIsTypedAndNeverHalfRestores) {
  const auto cfg = matrix_system_config(sim::PrefetchKind::None);
  sim::System sys(cfg, matrix_streams(cfg.num_cores));
  sys.run(20'000);
  sys.memory().drain(sys.now());
  const std::vector<std::uint8_t> good = ckpt::seal(ckpt::capture(sys));

  // Truncation: header intact, payload cut short.
  std::vector<std::uint8_t> truncated(good.begin(), good.end() - good.size() / 3);
  EXPECT_EQ(restore_error(cfg, truncated), ckpt::ErrorKind::Checksum);

  // Truncation into the header itself.
  std::vector<std::uint8_t> stub(good.begin(), good.begin() + 6);
  EXPECT_EQ(restore_error(cfg, stub), ckpt::ErrorKind::Magic);

  // Single bit flip mid-payload.
  std::vector<std::uint8_t> flipped = good;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_EQ(restore_error(cfg, flipped), ckpt::ErrorKind::Checksum);

  // Foreign file (bad magic).
  std::vector<std::uint8_t> foreign = good;
  foreign[0] ^= 0xFF;
  EXPECT_EQ(restore_error(cfg, foreign), ckpt::ErrorKind::Magic);

  // Future format version (header field right after the 8-byte magic).
  std::vector<std::uint8_t> future = good;
  future[8] = static_cast<std::uint8_t>(ckpt::kVersion + 1);
  EXPECT_EQ(restore_error(cfg, future), ckpt::ErrorKind::Version);

  // Missing file.
  sim::System victim(cfg, matrix_streams(cfg.num_cores));
  EXPECT_THROW(victim.restore(testing::TempDir() + "ckpt_nonexistent.ckpt"),
               ckpt::CheckpointError);
}

TEST(CkptCorruption, ConfigMismatchIsTyped) {
  // Image from a 2-core machine into a 4-core twin: Config, not garbage.
  const auto cfg2 = matrix_system_config(sim::PrefetchKind::None);
  sim::System small(cfg2, matrix_streams(cfg2.num_cores));
  small.run(10'000);
  small.memory().drain(small.now());
  const ckpt::Blob blob = ckpt::capture(small);

  auto cfg4 = cfg2;
  cfg4.num_cores = 4;
  cfg4.ctrl.num_cores = 4;
  sim::System big(cfg4, matrix_streams(cfg4.num_cores));
  try {
    ckpt::restore(big, blob);
    FAIL() << "cross-config restore succeeded";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), ckpt::ErrorKind::Config);
  }
}

TEST(CkptCorruption, DeepConfigMismatchNeverHalfRestores) {
  // The scheduler fingerprint sits deep in the image, after the clock, the
  // data store and every channel's timing state. Restore checks the whole
  // image before loading any of it, so the mismatched twin is left exactly
  // as constructed.
  const auto cfg = matrix_system_config(sim::PrefetchKind::None);
  sim::System frfcfs(cfg, matrix_streams(cfg.num_cores));
  frfcfs.run(20'000);
  frfcfs.memory().drain(frfcfs.now());
  const ckpt::Blob blob = ckpt::capture(frfcfs);

  auto bliss_cfg = cfg;
  bliss_cfg.ctrl.sched = mem::SchedKind::Bliss;
  sim::System twin(bliss_cfg, matrix_streams(bliss_cfg.num_cores));
  try {
    ckpt::restore(twin, blob);
    FAIL() << "cross-scheduler restore succeeded";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), ckpt::ErrorKind::Config);
  }
  sim::System pristine(bliss_cfg, matrix_streams(bliss_cfg.num_cores));
  EXPECT_EQ(render_system(twin), render_system(pristine));
  EXPECT_EQ(twin.now(), pristine.now());
}

TEST(CkptCorruption, OversizedLengthIsTypedFormatError) {
  // A crafted image passes the CRC, so a container length read from it is
  // bounded by the bytes left in the payload before anything is allocated.
  const auto expect_format = [](auto& target, ckpt::Sink& crafted) {
    ckpt::Blob blob;
    blob.payload = crafted.take();
    try {
      ckpt::restore(target, ckpt::open(ckpt::seal(blob)));
      FAIL() << "oversized length restored";
    } catch (const ckpt::CheckpointError& e) {
      EXPECT_EQ(e.kind(), ckpt::ErrorKind::Format);
    }
  };

  // Unordered map: the victim model's disturbance counters.
  mem::HammerVictimModel vm(matrix_dram(2).geometry, 50);
  ckpt::Sink map_image;
  map_image.section("victim_model");
  map_image.u64(std::uint64_t{1} << 61);
  expect_format(vm, map_image);
  EXPECT_EQ(vm.flips(), 0u);

  // Vector: the Q-agent's value table, behind its config fingerprint.
  const learn::QAgent::Config qcfg;
  learn::QAgent agent(qcfg);
  ckpt::Sink vec_image;
  vec_image.section("qagent");
  vec_image.u32(qcfg.num_actions);
  vec_image.u64(qcfg.table_entries);
  vec_image.f64(qcfg.epsilon);
  vec_image.u64(std::uint64_t{1} << 61);
  expect_format(agent, vec_image);
  EXPECT_EQ(agent.updates(), 0u);
}

TEST(CkptCorruption, MidEpochSaveRefusesWithStateError) {
  mem::MemorySystem sys(matrix_dram(2), mem::ControllerConfig{});
  mem::Request r;
  r.addr = 0;
  ASSERT_TRUE(sys.enqueue(r));
  // Queued work, no drain: the machine is not quiescent.
  try {
    ckpt::capture(sys);
    FAIL() << "mid-flight save succeeded";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), ckpt::ErrorKind::State);
  }
  // The refused save leaves the system runnable.
  const Cycle end = sys.drain(0);
  EXPECT_GT(end, 0u);
  EXPECT_TRUE(sys.idle());
}

// ---- crash-resilient sweeps over checkpoints -------------------------------

TEST(CkptSweep, TimeoutKilledJobRetriedFromCheckpointIsByteIdentical) {
  // The warm-start + retry story end to end: every sweep point shares one
  // warmup image; one job dies with SweepTimeout on its first attempt
  // after the warmup segment; the retry restores from the checkpoint and
  // completes. The final sweep table must be byte-identical to a run where
  // nothing ever died.
  const Factory make = [] {
    auto sys = std::make_unique<mem::MemorySystem>(matrix_dram(4), mem::ControllerConfig{});
    sys->set_shards(1);
    return sys;
  };

  // One shared warmup checkpoint, taken once (the amortization the
  // EXPERIMENTS table measures: N sweep points, 1 warmup).
  ckpt::Blob warm;
  Cycle warm_cycle = 0;
  {
    Outcome scratch;
    auto sys = make();
    warm_cycle = drain_hashed(*sys, 200, 0xCAFEull, scratch);
    warm = ckpt::capture(*sys);
  }

  const std::vector<std::uint64_t> points = {1, 2, 3, 4};
  const auto run_point = [&](std::uint64_t point, bool fail_first,
                             harness::JobContext& ctx) {
    if (fail_first && ctx.attempt == 0)
      throw harness::SweepTimeout("injected wall-clock kill");
    auto sys = make();
    ckpt::restore(*sys, warm);
    Outcome out;
    out.cycles = drain_hashed(*sys, 100, 0xBEEF00ull + point, out, warm_cycle);
    ctx.fragment.row({std::to_string(point), std::to_string(out.cycles),
                      std::to_string(out.checksum)});
    return out.checksum;
  };

  const auto sweep_table = [&](bool with_kill) {
    harness::SweepOptions opt;
    opt.retries = 2;
    opt.seed_base = 42;
    const auto res = harness::run_sweep(
        points,
        [&](const std::uint64_t& p, harness::JobContext& ctx) {
          return run_point(p, with_kill && p == 3, ctx);
        },
        opt);
    EXPECT_TRUE(res.ok());
    std::ostringstream table;
    for (const auto& frag : res.fragments)
      for (const auto& row : frag.rows())
        for (const auto& cell : row) table << cell << '|';
    return table.str();
  };

  const std::string clean = sweep_table(false);
  const std::string retried = sweep_table(true);
  EXPECT_EQ(clean, retried);
  EXPECT_FALSE(clean.empty());
}

}  // namespace
}  // namespace ima
