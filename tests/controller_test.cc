// Memory-controller integration tests: end-to-end request service, latency
// accounting, refresh interaction, PIM queue, stat consistency.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.hh"
#include "mem/memsys.hh"

namespace ima::mem {
namespace {

dram::DramConfig small_dram() {
  auto cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.channels = 1;
  cfg.geometry.ranks = 1;
  cfg.geometry.banks = 8;
  cfg.geometry.subarrays = 4;
  cfg.geometry.rows_per_subarray = 64;
  cfg.geometry.columns = 32;
  return cfg;
}

ControllerConfig small_ctrl() {
  ControllerConfig c;
  c.num_cores = 4;
  return c;
}

TEST(Controller, SingleReadCompletesWithExpectedLatency) {
  MemorySystem sys(small_dram(), small_ctrl());
  const auto& tm = sys.dram_config().timings;

  Request r;
  r.addr = 0;
  r.type = AccessType::Read;
  r.arrive = 0;
  Cycle done = 0;
  ASSERT_TRUE(sys.enqueue(r, [&](const Request& req) { done = req.complete; }));
  sys.drain(0);
  // Idle-bank read: ACT at ~1, RD at ~1+tRCD, data at +CL+BL.
  ASSERT_GT(done, 0u);
  EXPECT_GE(done, tm.rcd + tm.cl + tm.bl);
  EXPECT_LE(done, tm.rcd + tm.cl + tm.bl + 10);
  EXPECT_EQ(sys.aggregate_stats().reads_done, 1u);
}

TEST(Controller, RowHitLatencyLowerThanConflict) {
  MemorySystem sys(small_dram(), small_ctrl());
  // Two reads to the same row: second is a row hit.
  std::vector<Cycle> done(3, 0);
  Request a;
  a.addr = 0;
  ASSERT_TRUE(sys.enqueue(a, [&](const Request& r) { done[0] = r.complete; }));
  sys.drain(0);
  Cycle now = done[0] + 1;

  Request b;
  b.addr = kLineBytes;  // same row, next column
  b.arrive = now;
  ASSERT_TRUE(sys.enqueue(b, [&](const Request& r) { done[1] = r.complete; }));
  now = sys.drain(now);
  const Cycle hit_latency = done[1] - b.arrive;

  // Conflict: different row, same bank.
  Request c;
  c.addr = static_cast<Addr>(small_dram().geometry.row_bytes()) *
           small_dram().geometry.banks * 2;  // same bank (RoBaRaCoCh), different row
  c.arrive = now + 1;
  ASSERT_TRUE(sys.enqueue(c, [&](const Request& r) { done[2] = r.complete; }));
  sys.drain(now + 1);
  const Cycle conflict_latency = done[2] - c.arrive;
  EXPECT_LT(hit_latency, conflict_latency);

  const auto st = sys.aggregate_stats();
  EXPECT_EQ(st.row_hits, 1u);
  EXPECT_GE(st.row_conflicts + st.row_misses, 2u);
}

TEST(Controller, AllEnqueuedReadsComplete) {
  MemorySystem sys(small_dram(), small_ctrl());
  Rng rng(1);
  std::uint64_t completed = 0;
  std::uint64_t enqueued = 0;
  Cycle now = 0;
  for (int i = 0; i < 500; ++i) {
    Request r;
    r.addr = line_base(rng.next_below(small_dram().geometry.total_bytes()));
    r.type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
    r.arrive = now;
    if (sys.enqueue(r, [&](const Request&) { ++completed; })) ++enqueued;
    sys.tick(now);
    ++now;
  }
  sys.drain(now);
  EXPECT_EQ(completed, enqueued);
  const auto st = sys.aggregate_stats();
  EXPECT_EQ(st.reads_done + st.writes_done, enqueued);
  EXPECT_EQ(st.row_hits + st.row_misses + st.row_conflicts, enqueued);
}

TEST(Controller, SlotsRecycleUnderReentrantCallbacks) {
  // Every retire callback refills the controller it runs in, so slots are
  // freed and claimed again — and the pool outgrows its reservation, since
  // a full queue plus the inflight bursts need more slots than the queues
  // hold — while callbacks run. Each request must still complete exactly
  // once, with its own id, address, type and completion cycle.
  ControllerConfig cc = small_ctrl();
  cc.read_queue_size = 8;
  cc.write_queue_size = 8;
  cc.write_drain_high = 6;
  cc.write_drain_low = 2;
  MemorySystem sys(small_dram(), cc);
  Controller& ctrl = sys.controller(0);
  const std::uint64_t total = 10 * (cc.read_queue_size + cc.write_queue_size);
  Rng rng(7);
  std::vector<Addr> addr_of(total + 1);
  std::vector<AccessType> type_of(total + 1);
  std::vector<int> fired(total + 1, 0);
  std::uint64_t issued = 0;
  Cycle now = 0;
  std::function<void(AccessType)> fill = [&](AccessType t) {
    while (issued < total && ctrl.can_accept(t)) {
      Request r;
      r.addr = line_base(rng.next_below(small_dram().geometry.total_bytes()));
      r.type = t;
      r.core = static_cast<std::uint32_t>(issued % cc.num_cores);
      r.arrive = now;
      const std::uint64_t id = ++issued;  // the controller numbers requests 1, 2, ...
      addr_of[id] = r.addr;
      type_of[id] = t;
      EXPECT_TRUE(ctrl.enqueue(r, [&, id](const Request& done) {
        ++fired[id];
        // Refill first, then check: the refill claims slots (this one
        // first) and may grow the pool, so a `done` or a callback still
        // living in the pool would read back another request here.
        fill(done.type);
        EXPECT_EQ(done.id, id);
        EXPECT_EQ(done.addr, addr_of[id]);
        EXPECT_EQ(done.type, type_of[id]);
        EXPECT_EQ(done.complete, now);  // ticked every cycle: retires at `complete`
      }));
    }
  };
  fill(AccessType::Read);
  fill(AccessType::Write);
  for (; issued < total || !ctrl.idle(); ++now) {
    ASSERT_LT(now, Cycle{1'000'000}) << "controller wedged";
    ctrl.tick(now);
  }
  EXPECT_EQ(issued, total);
  for (std::uint64_t id = 1; id <= total; ++id) EXPECT_EQ(fired[id], 1) << "id " << id;
  EXPECT_TRUE(ctrl.idle());
  EXPECT_EQ(ctrl.stats().reads_done + ctrl.stats().writes_done, total);
}

TEST(Controller, QueueFullRejects) {
  auto ctrl = small_ctrl();
  ctrl.read_queue_size = 4;
  MemorySystem sys(small_dram(), ctrl);
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    Request r;
    r.addr = static_cast<Addr>(i) * 4096;
    if (sys.enqueue(r)) ++accepted;
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_GT(sys.aggregate_stats().enqueue_rejects, 0u);
  EXPECT_FALSE(sys.can_accept(0, AccessType::Read));
}

TEST(Controller, WritesDrainViaWatermark) {
  auto ctrl = small_ctrl();
  ctrl.write_queue_size = 64;
  ctrl.write_drain_high = 8;
  ctrl.write_drain_low = 2;
  MemorySystem sys(small_dram(), ctrl);
  for (int i = 0; i < 16; ++i) {
    Request w;
    w.addr = static_cast<Addr>(i) * 4096;
    w.type = AccessType::Write;
    ASSERT_TRUE(sys.enqueue(w));
  }
  sys.drain(0);
  EXPECT_EQ(sys.aggregate_stats().writes_done, 16u);
}

TEST(Controller, ReadsPrioritizedOverWrites) {
  MemorySystem sys(small_dram(), small_ctrl());
  // A few writes then a read; the read should finish before all writes are
  // done because reads take priority outside drain mode.
  for (int i = 0; i < 8; ++i) {
    Request w;
    w.addr = static_cast<Addr>(i) * 4096 + (1 << 20);
    w.type = AccessType::Write;
    ASSERT_TRUE(sys.enqueue(w));
  }
  Cycle read_done = 0;
  Request r;
  r.addr = 0;
  ASSERT_TRUE(sys.enqueue(r, [&](const Request& req) { read_done = req.complete; }));
  const Cycle end = sys.drain(0);
  EXPECT_LT(read_done, end);
}

// Enqueues one read per (bank, row, arrive stamp) into an idle controller
// under `kind` at cycle `now`, in the order given, drains, and returns the
// stamps in completion order.
std::vector<Cycle> stamps_in_service_order(
    SchedKind kind, Cycle now, const std::vector<std::array<std::uint32_t, 3>>& reqs) {
  const auto dram_cfg = small_dram();
  ControllerConfig ctrl = small_ctrl();
  ctrl.sched = kind;
  MemorySystem sys(dram_cfg, ctrl);
  std::vector<Cycle> order;
  for (const auto& [bank, row, arrive] : reqs) {
    Request r;
    r.addr = (static_cast<Addr>(row) * dram_cfg.geometry.banks + bank) *
             dram_cfg.geometry.row_bytes();  // RoBaRaCoCh, one rank
    r.arrive = arrive;
    EXPECT_TRUE(sys.enqueue(r, [&order](const Request& done) { order.push_back(done.arrive); }));
  }
  sys.drain(now);
  return order;
}

// A request stamped earlier than those already queued is still the oldest:
// the controller keeps its queues in arrival order, so oldest-first
// policies serve it first.
TEST(Controller, FcfsServesTheOldestStampFirst) {
  EXPECT_EQ(stamps_in_service_order(SchedKind::Fcfs, 200, {{0, 1, 100}, {1, 2, 50}, {2, 3, 75}}),
            (std::vector<Cycle>{50, 75, 100}));
}

TEST(Controller, FrFcfsFallsBackToTheOldestStampWhenNoHit) {
  const auto order = stamps_in_service_order(SchedKind::FrFcfs, 100, {{1, 7, 10}, {2, 9, 5}});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order.front(), 5u);
}

TEST(Controller, RefreshHappensAtTrefi) {
  MemorySystem sys(small_dram(), small_ctrl());
  const Cycle horizon = small_dram().timings.refi * 3 + 1000;
  for (Cycle now = 0; now < horizon; ++now) sys.tick(now);
  EXPECT_GE(sys.channel(0).stats().refs, 2u);
  EXPECT_LE(sys.channel(0).stats().refs, 4u);
}

TEST(Controller, RefreshForcesPrechargeOfOpenBanks) {
  MemorySystem sys(small_dram(), small_ctrl());
  // Open a row just before refresh is due, then stop sending traffic.
  Request r;
  r.addr = 0;
  ASSERT_TRUE(sys.enqueue(r));
  const Cycle horizon = small_dram().timings.refi + 2000;
  for (Cycle now = 0; now < horizon; ++now) sys.tick(now);
  EXPECT_GE(sys.channel(0).stats().refs, 1u);
}

TEST(Controller, RetiredRequestCarriesItsLifecycleStamps) {
  // Read A activates its row two cycles before the first REF is due, so the
  // REF waits out tRAS and a forced PREALL and holds A after its first
  // command; read B arrives inside that window, before any command of its
  // own. Each retires with the body it was enqueued with and the stamps
  // made while it was queued.
  ControllerConfig cc = small_ctrl();
  cc.record_spans = true;
  MemorySystem sys(small_dram(), cc);
  Controller& ctrl = sys.controller(0);
  const Cycle due = small_dram().timings.refi;
  std::vector<Request> done;
  const auto read = [&](Addr addr, std::uint64_t tag, Cycle now) {
    Request r;
    r.addr = addr;
    r.tag = tag;
    r.arrive = now;
    ASSERT_TRUE(ctrl.enqueue(r, [&](const Request& q) { done.push_back(q); }));
  };
  Cycle now = 0;
  for (; now < due - 2; ++now) ctrl.tick(now);
  read(0, 0xA, now);
  for (; now < due + 1; ++now) ctrl.tick(now);
  read(small_dram().geometry.total_bytes() / 2, 0xB, now);
  for (; !ctrl.idle(); ++now) {
    ASSERT_LT(now, due + 10'000) << "controller wedged";
    ctrl.tick(now);
  }
  ASSERT_EQ(sys.channel(0).stats().refs, 1u);
  ASSERT_EQ(done.size(), 2u);
  const Request& a = done[0].tag == 0xA ? done[0] : done[1];
  const Request& b = done[0].tag == 0xA ? done[1] : done[0];
  EXPECT_EQ(a.tag, 0xAu);
  EXPECT_EQ(b.tag, 0xBu);
  EXPECT_EQ(a.arrive, due - 2);
  EXPECT_EQ(b.arrive, due + 1);
  EXPECT_NE(a.id, 0u);
  EXPECT_NE(b.id, 0u);
  EXPECT_NE(a.id, b.id);
  for (const Request* r : {&a, &b}) {
    EXPECT_LE(r->arrive, r->first_cmd);
    EXPECT_LE(r->first_cmd, r->served);
    EXPECT_LT(r->served, r->complete);
    EXPECT_GT(r->blocked_queue + r->blocked_prep, 0u);
  }
  EXPECT_GT(a.blocked_prep, 0u) << "A's first command precedes the refresh";
  EXPECT_GT(b.blocked_queue, 0u) << "B waits for the refresh before its first command";
}

TEST(Controller, PimOpsExecuteInOrder) {
  MemorySystem sys(small_dram(), small_ctrl());
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    PimOp op;
    op.cmd = dram::Cmd::AapFpm;
    op.bank = dram::Coord{0, 0, 0, 0, 0};
    op.args.src_row = 1;
    op.args.dst_row = static_cast<std::uint32_t>(2 + i);
    op.on_done = [&order, i](Cycle) { order.push_back(i); };
    sys.controller(0).enqueue_pim(std::move(op));
  }
  sys.drain(0);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sys.aggregate_stats().pim_ops_done, 3u);
}

TEST(Controller, PimInterleavesWithTraffic) {
  MemorySystem sys(small_dram(), small_ctrl());
  sys.data().fill_row({0, 0, 0, 1, 0}, 0x42);

  bool pim_done = false;
  PimOp op;
  op.cmd = dram::Cmd::AapFpm;
  op.bank = dram::Coord{0, 0, 0, 0, 0};
  op.args.src_row = 1;
  op.args.dst_row = 2;
  op.on_done = [&](Cycle) { pim_done = true; };
  sys.controller(0).enqueue_pim(std::move(op));

  std::uint64_t reads_done = 0;
  Rng rng(2);
  Cycle now = 0;
  for (int i = 0; i < 50; ++i) {
    Request r;
    r.addr = line_base(rng.next_below(1 << 22));
    r.arrive = now;
    ASSERT_TRUE(sys.enqueue(r, [&](const Request&) { ++reads_done; }));
    sys.tick(now++);
  }
  sys.drain(now);
  EXPECT_TRUE(pim_done);
  EXPECT_EQ(reads_done, 50u);
  EXPECT_EQ(sys.data().word({0, 0, 0, 2, 0}, 0), 0x42u);
}

TEST(Controller, ReadLatencyStatTracked) {
  MemorySystem sys(small_dram(), small_ctrl());
  Rng rng(4);
  Cycle now = 0;
  for (int i = 0; i < 100; ++i) {
    Request r;
    r.addr = line_base(rng.next_below(1 << 24));
    r.arrive = now;
    while (!sys.enqueue(r)) sys.tick(now++);  // retry on full queue
    sys.tick(now++);
  }
  sys.drain(now);
  const auto& lat = sys.controller(0).stats().read_latency;
  EXPECT_EQ(lat.count(), 100u);
  EXPECT_GT(lat.mean(), static_cast<double>(small_dram().timings.cl));
}

TEST(Controller, EnergyIncludesBackground) {
  MemorySystem sys(small_dram(), small_ctrl());
  const PicoJoule idle = sys.total_energy(10000);
  EXPECT_DOUBLE_EQ(idle, sys.channel(0).background_energy(10000));
  Request r;
  r.addr = 0;
  ASSERT_TRUE(sys.enqueue(r));
  sys.drain(0);
  EXPECT_GT(sys.total_energy(10000), idle);
}

TEST(Controller, CoreAccountingTracksService) {
  MemorySystem sys(small_dram(), small_ctrl());
  Request r;
  r.addr = 0;
  r.core = 2;
  ASSERT_TRUE(sys.enqueue(r));
  sys.drain(0);
  const auto& cores = sys.controller(0).cores();
  EXPECT_EQ(cores[2].served, 1u);
  EXPECT_GT(cores[2].attained_service, 0u);
  EXPECT_EQ(cores[2].outstanding, 0u);
}

TEST(Controller, MultiChannelRouting) {
  auto dram_cfg = small_dram();
  dram_cfg.geometry.channels = 2;
  MemorySystem sys(dram_cfg, small_ctrl());
  // Consecutive lines alternate channels under RoBaRaCoCh.
  ASSERT_TRUE(sys.enqueue([] { Request r; r.addr = 0; return r; }()));
  ASSERT_TRUE(sys.enqueue([] { Request r; r.addr = kLineBytes; return r; }()));
  sys.drain(0);
  EXPECT_EQ(sys.controller(0).stats().reads_done, 1u);
  EXPECT_EQ(sys.controller(1).stats().reads_done, 1u);
}

TEST(MemSys, PokePeekRoundTrip) {
  MemorySystem sys(small_dram(), small_ctrl());
  std::vector<std::uint8_t> in(300), out(300);
  Rng rng(6);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
  sys.poke(1000, in);  // deliberately unaligned, line-crossing
  sys.peek(1000, out);
  EXPECT_EQ(in, out);
}

TEST(MemSys, PokeU64) {
  MemorySystem sys(small_dram(), small_ctrl());
  sys.poke_u64(0x12340, 0xDEADBEEFull);
  EXPECT_EQ(sys.peek_u64(0x12340), 0xDEADBEEFull);
  EXPECT_EQ(sys.peek_u64(0x99999000), 0u);  // untouched memory reads zero
}

TEST(MemSys, SchedulerSwapBeforeUse) {
  MemorySystem sys(small_dram(), small_ctrl());
  sys.controller(0).set_scheduler(make_scheduler(SchedKind::ParBs, 4));
  Request r;
  r.addr = 0;
  ASSERT_TRUE(sys.enqueue(r));
  sys.drain(0);
  EXPECT_EQ(sys.aggregate_stats().reads_done, 1u);
}

}  // namespace
}  // namespace ima::mem
