// Service facade: the narrow push/is_full/top/pop surface must be a
// zero-cost veneer — a facade-driven run is byte-identical (per-channel
// completion sequences and StatRegistry snapshot alike) to the same
// schedule issued through MemorySystem::enqueue directly, at any shard
// width and inside sweep workers. The backpressure suite pins the PR 8
// loss contract: push after is_full() == false never fails, push on a full
// channel throws instead of dropping, and at saturation every admitted
// request is accounted for (`pushed == completed + in_flight` at all
// times). The drain-deadline suite pins the other PR 8 bugfix: a clipped
// drain is never silent (counter + last_drain_clipped), DeadlinePolicy::
// Throw aborts through obs::WatchdogError, a clipped drain returns its
// deadline and a resumed one the same end cycle as an uninterrupted run,
// and what a clipped sourced drain admitted still completes into its own
// source's on_complete.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/config.hh"
#include "harness/pool.hh"
#include "harness/sweep.hh"
#include "mem/memsys.hh"
#include "obs/report.hh"
#include "obs/stat_registry.hh"
#include "obs/watchdog.hh"
#include "service/facade.hh"
#include "workloads/tensor.hh"

namespace {

using namespace ima;

dram::DramConfig small_cfg(std::uint32_t channels = 4) {
  auto cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.channels = channels;
  cfg.geometry.banks = 4;
  cfg.geometry.subarrays = 2;
  cfg.geometry.rows_per_subarray = 64;
  return cfg;
}

/// One completion as a golden-matrix witness.
struct Done {
  Addr addr;
  Cycle complete;
  bool operator==(const Done& o) const { return addr == o.addr && complete == o.complete; }
};

/// The shared schedule both drivers replay: request i's address and the
/// drain-when-full retry decision are functions of (seed, i) and the
/// controller's own admission predicate only.
mem::Request gen_req(Rng& rng) {
  mem::Request r;
  r.addr = rng.next_below(1ull << 26) & ~Addr{63};
  if (rng.chance(0.25)) r.type = AccessType::Write;
  return r;
}

constexpr int kGoldenReqs = 96;

/// Snapshot serialized the way bench_util lands it in BENCH json, so
/// "byte-identical" means the artifact bytes, not a lossy comparison.
std::string snapshot_json(const mem::MemorySystem& sys) {
  obs::StatRegistry reg;
  sys.register_stats(reg, "svc");
  obs::ReportFragment frag;
  frag.snapshot(reg.snapshot());
  obs::Report rep("service_test", "t", "c");
  rep.merge(frag);
  rep.set_complete(true);
  std::ostringstream os;
  rep.write_json(os);
  return os.str();
}

struct GoldenOut {
  std::vector<std::vector<Done>> per_ch;
  std::string json;
};

GoldenOut run_direct(unsigned shards) {
  mem::MemorySystem sys(small_cfg(), {});
  sys.set_shards(shards);
  GoldenOut out;
  out.per_ch.resize(sys.num_channels());
  Rng rng(7);
  Cycle now = 0;
  for (int i = 0; i < kGoldenReqs; ++i) {
    mem::Request r = gen_req(rng);
    const std::uint32_t ch = sys.mapper().decode(r.addr).channel;
    if (!sys.controller(ch).can_accept(r.type, r.core)) now = sys.drain(now);
    r.arrive = now;
    const bool ok = sys.enqueue(r, [&out, ch](const mem::Request& done) {
      out.per_ch[ch].push_back({done.addr, done.complete});
    });
    if (!ok) throw std::runtime_error("direct enqueue rejected after can_accept");
  }
  sys.drain(now);
  out.json = snapshot_json(sys);
  return out;
}

GoldenOut run_facade(unsigned shards) {
  mem::MemorySystem sys(small_cfg(), {});
  sys.set_shards(shards);
  service::MemoryService svc(sys);
  Rng rng(7);
  Cycle now = 0;
  for (int i = 0; i < kGoldenReqs; ++i) {
    mem::Request r = gen_req(rng);
    const std::uint32_t ch = svc.channel_of(r.addr);
    if (svc.is_full(ch, r)) now = svc.drain_to(now);
    svc.push(ch, r, now);
  }
  svc.drain_to(now);
  GoldenOut out;
  out.per_ch.resize(svc.num_channels());
  for (std::uint32_t ch = 0; ch < svc.num_channels(); ++ch)
    while (!svc.is_empty(ch)) {
      out.per_ch[ch].push_back({svc.top(ch).addr, svc.top(ch).complete});
      svc.pop(ch);
    }
  EXPECT_EQ(svc.pushed(), svc.completed());
  EXPECT_EQ(svc.in_flight(), 0u);
  out.json = snapshot_json(sys);
  return out;
}

TEST(ServiceGolden, FacadeMatchesDirectEnqueueAtShards1And8) {
  const GoldenOut direct1 = run_direct(1);
  ASSERT_FALSE(direct1.per_ch[0].empty() && direct1.per_ch[1].empty());
  for (const unsigned shards : {1u, 8u}) {
    const GoldenOut d = run_direct(shards);
    const GoldenOut f = run_facade(shards);
    EXPECT_EQ(d.per_ch, direct1.per_ch) << "direct run diverged at " << shards;
    EXPECT_EQ(f.per_ch, direct1.per_ch) << "facade run diverged at " << shards;
    EXPECT_EQ(d.json, direct1.json);
    EXPECT_EQ(f.json, direct1.json);
  }
}

TEST(ServiceGolden, FacadeInsideSweepWorkersIsWidthInvariant) {
  // The facade nested inside sweep jobs (where sharded drains collapse to
  // inline epochs) must merge to the same report bytes at any pool width.
  const std::vector<int> configs(8, 0);
  const auto job = [](const int&, harness::JobContext& ctx) {
    mem::MemorySystem sys(small_cfg(2), {});
    sys.set_shards(4);
    service::MemoryService svc(sys);
    Rng rng(harness::job_seed(0x5E47, ctx.index));
    Cycle now = 0;
    for (int i = 0; i < 48; ++i) {
      mem::Request r = gen_req(rng);
      const std::uint32_t ch = svc.channel_of(r.addr);
      if (svc.is_full(ch, r)) now = svc.drain_to(now);
      svc.push(ch, r, now);
    }
    svc.drain_to(now);
    if (svc.pushed() != svc.completed())
      throw std::runtime_error("facade lost a request inside a sweep job");
    const std::string tag = "job" + std::to_string(ctx.index);
    obs::StatRegistry reg;
    sys.register_stats(reg, tag);
    ctx.fragment.snapshot(reg.snapshot());
    ctx.fragment.metric(tag + ".completed", static_cast<double>(svc.completed()));
    return svc.completed();
  };
  harness::SweepOptions serial, wide;
  serial.jobs = 1;
  wide.jobs = 8;
  const auto a = harness::run_sweep(configs, job, serial);
  const auto b = harness::run_sweep(configs, job, wide);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto merged = [](const auto& res) {
    obs::Report rep("service_sweep", "t", "c");
    for (const auto& f : res.fragments) rep.merge(f);
    rep.set_complete(true);
    std::ostringstream os;
    rep.write_json(os);
    return os.str();
  };
  EXPECT_EQ(merged(a), merged(b));
}

TEST(ServiceBackpressure, PushAfterIsFullFalseNeverFailsAndFullThrows) {
  mem::MemorySystem sys(small_cfg(1), {});
  service::MemoryService svc(sys);
  // Hammer one channel until its queue refuses: every push the facade
  // admitted was gated on is_full == false and none may throw.
  mem::Request probe;
  probe.addr = 0;
  std::uint64_t admitted = 0;
  Addr a = 0;
  while (!svc.is_full(0, probe)) {
    mem::Request r;
    r.addr = a;
    a += kLineBytes;
    ASSERT_NO_THROW(svc.push(0, r, 0));
    ++admitted;
    ASSERT_LT(admitted, 100000u) << "queue never filled";
  }
  EXPECT_GT(admitted, 0u);
  // Now full: push must refuse loudly, not drop silently.
  mem::Request r;
  r.addr = a;
  EXPECT_THROW(svc.push(0, r, 0), std::logic_error);
  EXPECT_EQ(svc.pushed(), admitted);
  // Misrouted push is equally loud (needs >= 2 channels to misroute).
  mem::MemorySystem sys2(small_cfg(2), {});
  service::MemoryService svc2(sys2);
  mem::Request m;
  m.addr = 0;
  const std::uint32_t home = svc2.channel_of(m.addr);
  EXPECT_THROW(svc2.push(1 - home, m, 0), std::logic_error);
  EXPECT_THROW(svc2.push(99, m, 0), std::logic_error);
  // Drain: every admitted request completes; nothing was lost at the full
  // boundary.
  svc.drain_to(0);
  EXPECT_EQ(svc.completed(), admitted);
  EXPECT_EQ(svc.in_flight(), 0u);
  EXPECT_EQ(svc.responses_queued(), admitted);
}

TEST(ServiceBackpressure, SaturationRegressionLosesNoRequestOrCallback) {
  // The regression the [[nodiscard]] audit exists for: drive the system at
  // saturation (retry on full) and prove the books balance exactly.
  const unsigned shards = std::max(1u, harness::default_shards());
  mem::MemorySystem sys(small_cfg(), {});
  sys.set_shards(shards);
  service::MemoryService svc(sys);
  Rng rng(11);
  Cycle now = 0;
  const std::uint64_t kTotal = 4000;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    mem::Request r = gen_req(rng);
    const std::uint32_t ch = svc.channel_of(r.addr);
    while (svc.is_full(ch, r)) now = svc.drain_to(now);
    svc.push(ch, r, now);
    EXPECT_EQ(svc.pushed(), svc.completed() + svc.in_flight());
  }
  svc.drain_to(now);
  EXPECT_EQ(svc.pushed(), kTotal);
  EXPECT_EQ(svc.completed(), kTotal);
  EXPECT_EQ(svc.in_flight(), 0u);
  std::uint64_t popped = 0;
  for (std::uint32_t ch = 0; ch < svc.num_channels(); ++ch)
    while (!svc.is_empty(ch)) {
      svc.pop(ch);
      ++popped;
    }
  EXPECT_EQ(popped, kTotal);
  EXPECT_EQ(svc.responses_queued(), 0u);
}

TEST(ServiceResponseQueue, TopPopProtocolIsLoud) {
  mem::MemorySystem sys(small_cfg(1), {});
  service::MemoryService svc(sys);
  EXPECT_TRUE(svc.is_empty(0));
  EXPECT_THROW((void)svc.top(0), std::logic_error);
  EXPECT_THROW(svc.pop(0), std::logic_error);
  mem::Request r;
  r.addr = 0x1000;
  r.tag = 77;
  svc.push(0, r, 0);
  svc.drain_to(0);
  ASSERT_FALSE(svc.is_empty(0));
  EXPECT_EQ(svc.top(0).addr, 0x1000u);
  EXPECT_EQ(svc.top(0).tag, 77u) << "caller cookie must survive the round trip";
  EXPECT_LT(svc.top(0).complete, kCycleNever);
  svc.pop(0);
  EXPECT_TRUE(svc.is_empty(0));
}

TEST(ServiceTick, ClosedLoopWorksAndShardPlanRefusesTick) {
  mem::MemorySystem sys(small_cfg(1), {});
  service::MemoryService svc(sys);
  mem::Request r;
  r.addr = 0x40;
  svc.push(0, r, 0);
  Cycle now = 0;
  while (svc.completed() == 0) {
    svc.tick(now++);
    ASSERT_LT(now, 100000u);
  }
  EXPECT_EQ(svc.completed(), 1u);
  // With a shard plan armed, tick would strand completions in the barrier
  // mailboxes — the facade refuses instead of silently losing callbacks.
  mem::MemorySystem sys2(small_cfg(1), {});
  sys2.set_shards(2);
  service::MemoryService svc2(sys2);
  EXPECT_THROW(svc2.tick(0), std::logic_error);
}

// enqueue() binds each callback to the shard plan armed at that moment,
// so the plan may switch only on a quiescent system: arming it over a
// queued request, or pump() arming it over a push()ed one, throws instead
// of letting that request's inline callback fire on a shard worker.
TEST(ServicePlan, ShardPlanSwitchesOnlyWhenQuiescent) {
  mem::Request r;
  r.addr = 0x40;
  mem::MemorySystem sys(small_cfg(2), {});
  ASSERT_TRUE(sys.enqueue(r));
  EXPECT_THROW(sys.set_shards(2), std::logic_error);
  EXPECT_EQ(sys.shards(), 0u);
  sys.drain(0);
  sys.set_shards(2);
  EXPECT_EQ(sys.shards(), 2u);

  mem::MemorySystem sys2(small_cfg(2), {});
  service::MemoryService svc(sys2);
  svc.push(svc.channel_of(r.addr), r, 0);
  mem::MemorySystem::ChannelSource src;
  src.next = [](std::uint32_t, Cycle, mem::Request&) { return false; };
  EXPECT_THROW(svc.pump(src, 0), std::logic_error);
  EXPECT_EQ(sys2.shards(), 0u);
  const Cycle end = svc.drain_to(0);
  EXPECT_EQ(svc.completed(), 1u);
  EXPECT_NO_THROW(svc.pump(src, end));
  EXPECT_GT(sys2.shards(), 0u);
}

TEST(ServicePump, OpenLoopTensorFeedIsLossFreeAndWidthInvariant) {
  // Tensor-traffic open-loop pump: byte-identical completions at 1 shard
  // vs a wide plan, and pushed() counts source feeds too.
  const auto run = [](unsigned shards) {
    mem::MemorySystem sys(small_cfg(2), {});
    sys.set_shards(shards);
    service::MemoryService svc(sys);
    workloads::TensorConfig tc;
    tc.m = tc.n = 16;
    tc.k = 32;
    tc.tile_m = tc.tile_n = 8;
    tc.tile_k = 16;
    const workloads::TensorTraffic traffic(tc);
    std::vector<std::uint64_t> cursor(sys.num_channels(), 0);
    std::vector<Cycle> t(sys.num_channels(), 0);
    mem::MemorySystem::ChannelSource src;
    src.next = [&](std::uint32_t ch, Cycle, mem::Request& r) {
      if (cursor[ch] >= traffic.accesses_per_pass()) return false;
      const auto acc = traffic.at(cursor[ch]++);
      dram::Coord c{};
      c.channel = ch;
      c.column = static_cast<std::uint32_t>((acc.offset / kLineBytes) % 128);
      c.row = static_cast<std::uint32_t>((acc.offset / kLineBytes) / 128);
      r = mem::Request{};
      r.addr = sys.mapper().encode(c);
      r.type = acc.type;
      t[ch] += 7;  // time-dated: arrivals spaced into the future
      r.arrive = t[ch];
      r.tag = t[ch];
      return true;
    };
    std::uint64_t checksum = 0, completions = 0;
    src.on_complete = [&](std::uint32_t ch, const mem::Request& done) {
      EXPECT_GE(done.complete, done.tag) << "completed before its intended arrival";
      checksum = mem::fold_completion(checksum, ch, done);
      ++completions;
    };
    svc.pump(src, 0);
    EXPECT_EQ(svc.pushed(), svc.completed());
    EXPECT_EQ(svc.completed(), completions);
    EXPECT_EQ(completions, 2 * traffic.accesses_per_pass());
    EXPECT_EQ(svc.in_flight(), 0u);
    EXPECT_FALSE(sys.last_drain_clipped());
    return checksum;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ServicePump, EachCompletionHasOneConsumer) {
  // pump's contract: with a completion hook every completion goes to the
  // hook and none to the response queues; without one the queues hold
  // every completion, per channel in the canonical order the hook saw.
  const unsigned shards = std::max(1u, harness::default_shards());
  const auto run = [shards](bool hook, std::vector<std::vector<Done>>& per_ch) {
    mem::MemorySystem sys(small_cfg(), {});
    sys.set_shards(shards);
    service::MemoryService svc(sys);
    std::vector<std::uint64_t> cursor(sys.num_channels(), 0);
    mem::MemorySystem::ChannelSource src;
    src.next = [&](std::uint32_t ch, Cycle, mem::Request& r) {
      std::uint64_t& i = cursor[ch];
      if (i >= 150) return false;
      const auto& g = sys.dram_config().geometry;
      const std::uint64_t h = harness::job_seed(0x9A3Full, ch * 0x10001ull + i);
      dram::Coord c;
      c.channel = ch;
      c.bank = static_cast<std::uint32_t>(h >> 8) % g.banks;
      c.row = static_cast<std::uint32_t>(h >> 16) % g.rows_per_bank();
      c.column = static_cast<std::uint32_t>(h >> 40) % g.columns;
      r = mem::Request{};
      r.addr = sys.mapper().encode(c);
      r.type = i % 3 == 2 ? AccessType::Write : AccessType::Read;
      r.arrive = i * 5;
      ++i;
      return true;
    };
    per_ch.assign(sys.num_channels(), {});
    if (hook)
      src.on_complete = [&per_ch](std::uint32_t ch, const mem::Request& done) {
        per_ch[ch].push_back({done.addr, done.complete});
      };
    svc.pump(src, 0);
    EXPECT_FALSE(sys.last_drain_clipped());
    EXPECT_EQ(svc.pushed(), 150u * sys.num_channels());
    EXPECT_EQ(svc.pushed(), svc.completed() + svc.in_flight());
    EXPECT_EQ(svc.in_flight(), 0u);
    if (hook) {
      EXPECT_EQ(svc.responses_queued(), 0u) << "a hooked pump must leave the queues alone";
    } else {
      EXPECT_EQ(svc.responses_queued(), svc.completed());
      for (std::uint32_t ch = 0; ch < svc.num_channels(); ++ch)
        while (!svc.is_empty(ch)) {
          per_ch[ch].push_back({svc.top(ch).addr, svc.top(ch).complete});
          svc.pop(ch);
        }
    }
    return svc.completed();
  };
  std::vector<std::vector<Done>> hooked, queued;
  const std::uint64_t n = run(true, hooked);
  EXPECT_EQ(run(false, queued), n);
  std::uint64_t seen = 0;
  for (const auto& q : hooked) seen += q.size();
  EXPECT_EQ(seen, n) << "the hook must see every completion";
  EXPECT_EQ(queued, hooked);
}

TEST(ServiceFuzz, RandomInterleavingsKeepTheBooksBalanced) {
  // Fuzz leg (runs at IMA_SHARDS width under the sanitizer jobs): a random
  // interleaving of push / drain_to / pop must keep pushed == completed +
  // in_flight at every step and end with zero leakage.
  const unsigned shards = std::max(1u, harness::default_shards());
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    mem::MemorySystem sys(small_cfg(), {});
    sys.set_shards(shards);
    service::MemoryService svc(sys);
    Rng rng(harness::job_seed(0xF5A, seed));
    Cycle now = 0;
    std::uint64_t popped = 0;
    for (int step = 0; step < 600; ++step) {
      const auto op = rng.next_below(10);
      if (op < 7) {
        mem::Request r = gen_req(rng);
        const std::uint32_t ch = svc.channel_of(r.addr);
        if (svc.is_full(ch, r))
          now = svc.drain_to(now);
        else
          svc.push(ch, r, now);
      } else if (op < 9) {
        now = svc.drain_to(now);
      } else {
        const auto ch = static_cast<std::uint32_t>(rng.next_below(svc.num_channels()));
        if (!svc.is_empty(ch)) {
          svc.pop(ch);
          ++popped;
        }
      }
      ASSERT_EQ(svc.pushed(), svc.completed() + svc.in_flight());
      ASSERT_EQ(svc.responses_queued(), svc.completed() - popped);
    }
    svc.drain_to(now);
    EXPECT_EQ(svc.pushed(), svc.completed());
    EXPECT_EQ(svc.in_flight(), 0u);
  }
}

// --- drain-deadline surfacing (PR 8 satellite) ---

TEST(DrainDeadline, ClipIsCountedNeverSilent) {
  mem::MemorySystem sys(small_cfg(1), {});
  mem::Request r;
  r.addr = 0x40;
  ASSERT_TRUE(sys.enqueue(r));
  // A deadline shorter than one access clips: surfaced, counted, and the
  // snapshot carries it. The return is the deadline itself.
  EXPECT_EQ(sys.drain(0, 1), 1u);
  EXPECT_TRUE(sys.last_drain_clipped());
  EXPECT_EQ(sys.drain_deadline_clips(), 1u);
  // Finishing the work clears the sticky flag but not the counter, and
  // ends on the cycle an uninterrupted drain ends on.
  const Cycle end = sys.drain(1);
  EXPECT_FALSE(sys.last_drain_clipped());
  EXPECT_EQ(sys.drain_deadline_clips(), 1u);
  mem::MemorySystem ref(small_cfg(1), {});
  ASSERT_TRUE(ref.enqueue(r));
  EXPECT_EQ(end, ref.drain(0));
  obs::StatRegistry reg;
  sys.register_stats(reg, "m");
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.at("m.drain_deadline_clips").has_value());
  EXPECT_EQ(*snap.at("m.drain_deadline_clips"), 1.0);
}

TEST(DrainDeadline, ThrowPolicyAbortsThroughWatchdogError) {
  mem::MemorySystem sys(small_cfg(1), {});
  sys.set_deadline_policy(mem::MemorySystem::DeadlinePolicy::Throw);
  mem::Request r;
  r.addr = 0x40;
  ASSERT_TRUE(sys.enqueue(r));
  EXPECT_THROW(sys.drain(0, 1), obs::WatchdogError);
  EXPECT_EQ(sys.drain_deadline_clips(), 1u);
  // Record (the default) on a fresh system never throws for the same run.
  mem::MemorySystem sys2(small_cfg(1), {});
  ASSERT_TRUE(sys2.enqueue(r));
  EXPECT_NO_THROW(sys2.drain(0, 1));
}

TEST(DrainDeadline, SourcedDrainSurfacesClipAndExactEnd) {
  // 64 reads fill the queue at cycle 0, so the clipped call admits them all
  // and the resumed one only finishes them.
  const auto make_source = [](std::uint64_t& fed) {
    mem::MemorySystem::ChannelSource src;
    src.next = [&fed](std::uint32_t, Cycle, mem::Request& r) {
      if (fed >= 64) return false;
      r = mem::Request{};
      r.addr = fed++ * kLineBytes;
      return true;
    };
    return src;
  };
  mem::MemorySystem sys(small_cfg(1), {});
  sys.set_shards(2);
  std::uint64_t fed = 0;
  const auto src = make_source(fed);
  // Too-short deadline: clipped loudly, and the return is the deadline.
  EXPECT_EQ(sys.drain_sourced(src, 0, 1), 1u);
  EXPECT_TRUE(sys.last_drain_clipped());
  EXPECT_GE(sys.drain_deadline_clips(), 1u);
  // Let it finish: no new clip, and the same end cycle as one call.
  const auto clips = sys.drain_deadline_clips();
  const Cycle end = sys.drain_sourced(src, 1);
  EXPECT_FALSE(sys.last_drain_clipped());
  EXPECT_EQ(sys.drain_deadline_clips(), clips);
  EXPECT_EQ(fed, 64u);
  mem::MemorySystem ref(small_cfg(1), {});
  std::uint64_t ref_fed = 0;
  EXPECT_EQ(end, ref.drain_sourced(make_source(ref_fed), 0));
}

/// One sourced completion as its source's on_complete saw it.
struct Seen {
  std::uint32_t ch;
  std::uint64_t tag;
  Cycle complete;
  bool operator==(const Seen& o) const {
    return ch == o.ch && tag == o.tag && complete == o.complete;
  }
};
using SeenLog = std::shared_ptr<std::vector<Seen>>;

/// `per_ch` requests per channel, all dated `arrive`, tagged `base` + their
/// index, completing into `log`.
mem::MemorySystem::ChannelSource tagged_source(const mem::MemorySystem& sys,
                                               std::uint64_t per_ch, std::uint64_t base,
                                               Cycle arrive, SeenLog log) {
  mem::MemorySystem::ChannelSource src;
  src.next = [&sys, cursor = std::vector<std::uint64_t>(sys.num_channels(), 0), per_ch, base,
              arrive](std::uint32_t ch, Cycle, mem::Request& r) mutable {
    std::uint64_t& i = cursor[ch];
    if (i >= per_ch) return false;
    const auto& g = sys.dram_config().geometry;
    const auto k = static_cast<std::uint32_t>(i);
    r = mem::Request{};
    r.addr = sys.mapper().encode(
        dram::Coord{ch, 0, k % g.banks, (k * 7) % g.rows_per_bank(), k % g.columns});
    r.arrive = arrive;
    r.tag = base + ch * per_ch + i;
    ++i;
    return true;
  };
  src.on_complete = [log = std::move(log)](std::uint32_t ch, const mem::Request& done) {
    log->push_back(Seen{ch, done.tag, done.complete});
  };
  return src;
}

TEST(DrainDeadline, ClippedSourcedDrainCompletesIntoItsOwnSink) {
  // A sourced drain clipped with requests in flight: whichever later drain
  // finishes them, each admitted request reaches the on_complete of the
  // source that admitted it exactly once, in the canonical order of an
  // unclipped run.
  constexpr std::uint64_t kPerCh = 8;  // fits the queues: all admitted at once
  constexpr Cycle kClip = 40;          // shorter than any access
  const auto ref = std::make_shared<std::vector<Seen>>();
  {
    mem::MemorySystem sys(small_cfg(), {});
    sys.set_shards(2);
    sys.drain_sourced(tagged_source(sys, kPerCh, 0, 0, ref), 0);
    ASSERT_EQ(ref->size(), 4 * kPerCh);
  }
  ASSERT_TRUE(std::is_sorted(ref->begin(), ref->end(), [](const Seen& a, const Seen& b) {
    return a.complete != b.complete ? a.complete < b.complete : a.ch < b.ch;
  }));

  enum class Finish { SourcedDrain, Drain };
  for (const Finish finish : {Finish::SourcedDrain, Finish::Drain}) {
    mem::MemorySystem sys(small_cfg(), {});
    sys.set_shards(2);
    const auto first = std::make_shared<std::vector<Seen>>();
    sys.drain_sourced(tagged_source(sys, kPerCh, 0, 0, first), 0, kClip);
    ASSERT_TRUE(sys.last_drain_clipped());
    ASSERT_FALSE(sys.idle()) << "the clip must leave requests in flight";
    EXPECT_LT(first->size(), ref->size());
    if (finish == Finish::SourcedDrain) {
      // A second source with its own sink, dated after the first's work.
      const auto second = std::make_shared<std::vector<Seen>>();
      sys.drain_sourced(tagged_source(sys, 1, 1000, 50'000, second), kClip);
      ASSERT_EQ(second->size(), 4u);
      for (const Seen& s : *second) EXPECT_GE(s.tag, 1000u);
    } else {
      sys.drain(kClip);
    }
    EXPECT_FALSE(sys.last_drain_clipped());
    EXPECT_EQ(*first, *ref);
  }

  // DeadlinePolicy::Throw: the clip unwinds and the source dies with its
  // scope; the retained copy of its on_complete still takes the in-flight
  // completions, and is released once they are delivered.
  mem::MemorySystem sys(small_cfg(), {});
  sys.set_shards(2);
  sys.set_deadline_policy(mem::MemorySystem::DeadlinePolicy::Throw);
  const auto log = std::make_shared<std::vector<Seen>>();
  {
    const auto src = tagged_source(sys, kPerCh, 0, 0, log);
    EXPECT_THROW(sys.drain_sourced(src, 0, kClip), obs::WatchdogError);
  }
  EXPECT_EQ(log.use_count(), 2) << "the memory system retains one copy of on_complete";
  sys.drain(kClip);
  EXPECT_EQ(*log, *ref);
  EXPECT_EQ(log.use_count(), 1) << "a drained system must hold no sink";
}

}  // namespace
