// Scheduler policy unit tests: each policy's signature behaviour on
// hand-built queues against a real channel.
#include <gtest/gtest.h>

#include <string>

#include "common/ckpt.hh"
#include "common/clock.hh"
#include "common/rng.hh"
#include "dram/channel.hh"
#include "mem/memsys.hh"
#include "mem/sched.hh"
#include "obs/trace.hh"
#include "sim/closed_loop.hh"
#include "workloads/stream.hh"

namespace ima::mem {
namespace {

struct SchedFixture : ::testing::Test {
  dram::DramConfig cfg = dram::DramConfig::ddr4_2400();
  dram::Channel chan{cfg, 0, nullptr};
  std::vector<CoreState> cores{std::vector<CoreState>(4)};

  SchedTimingCache cache{chan};
  std::vector<QueueScanMeta> meta;

  // The view the controller would hand a scheduler over queue `q`: the
  // controller's meta builder plus the timing cache, begun at `now`.
  SchedView view(const std::vector<QueuedRequest>& q, Cycle now) {
    meta.clear();
    for (const auto& r : q) meta.push_back(scan_meta(chan, r));
    cache.begin(now);
    return SchedView{now, &cores, &cache, meta.data()};
  }

  QueuedRequest make(Addr row, std::uint32_t bank, std::uint32_t core, Cycle arrive,
                     AccessType t = AccessType::Read) {
    QueuedRequest q;
    q.coord = dram::Coord{0, 0, bank, static_cast<std::uint32_t>(row), 0};
    q.req.core = core;
    q.req.arrive = arrive;
    q.req.type = t;
    return q;
  }
};

TEST_F(SchedFixture, FactoryProducesAllKinds) {
  for (auto kind : {SchedKind::Fcfs, SchedKind::FrFcfs, SchedKind::FrFcfsCap,
                    SchedKind::ParBs, SchedKind::Atlas, SchedKind::Tcm, SchedKind::Bliss,
                    SchedKind::Rl}) {
    auto s = make_scheduler(kind, 4, 1);
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(s->name().empty());
  }
}

TEST_F(SchedFixture, FcfsPicksOldest) {
  auto s = make_scheduler(SchedKind::Fcfs, 4);
  std::vector<QueuedRequest> q{make(1, 0, 0, 100), make(2, 1, 1, 50), make(3, 2, 2, 75)};
  EXPECT_EQ(s->pick(q, view(q, 200)), 1u);
}

TEST_F(SchedFixture, FrFcfsPrefersRowHitOverAge) {
  auto s = make_scheduler(SchedKind::FrFcfs, 4);
  // Open row 5 in bank 0.
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;  // row hit is issuable now
  std::vector<QueuedRequest> q{make(7, 1, 0, 10),   // older, bank 1 (closed)
                               make(5, 0, 1, 50)};  // newer but row hit
  EXPECT_EQ(s->pick(q, view(q, now)), 1u);
}

TEST_F(SchedFixture, FrFcfsFallsBackToOldestWhenNoHit) {
  auto s = make_scheduler(SchedKind::FrFcfs, 4);
  std::vector<QueuedRequest> q{make(7, 1, 0, 10), make(9, 2, 1, 5)};
  EXPECT_EQ(s->pick(q, view(q, 100)), 1u);
}

TEST_F(SchedFixture, FrFcfsCapBreaksStreak) {
  auto s = make_scheduler(SchedKind::FrFcfsCap, 4);
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;
  std::vector<QueuedRequest> q{make(5, 0, 0, 50), make(7, 1, 1, 10)};
  // Serve row hits up to the cap (streak counter trails services by one).
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(s->pick(q, view(q, now)), 0u) << "iteration " << i;
    s->on_service(q[0], view(q, now));
  }
  // Past the cap the oldest non-hit wins.
  EXPECT_EQ(s->pick(q, view(q, now)), 1u);
}

TEST_F(SchedFixture, BlissBlacklistsStreakyCore) {
  auto s = make_scheduler(SchedKind::Bliss, 4);
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;
  std::vector<QueuedRequest> q{make(5, 0, 0, 1), make(7, 1, 1, 2)};
  // Core 0 gets 4 consecutive services -> blacklisted.
  for (int i = 0; i < 4; ++i) s->on_service(q[0], view(q, now));
  EXPECT_EQ(s->pick(q, view(q, now)), 1u);
}

TEST_F(SchedFixture, BlissClearsBlacklistPeriodically) {
  auto s = make_scheduler(SchedKind::Bliss, 4);
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;
  std::vector<QueuedRequest> q{make(5, 0, 0, 1), make(7, 1, 1, 2)};
  for (int i = 0; i < 4; ++i) s->on_service(q[0], view(q, now));
  // After the clearing interval, core 0's row hit wins again.
  s->tick(view(q, 20000), q);
  EXPECT_EQ(s->pick(q, view(q, 20000)), 0u);
}

TEST_F(SchedFixture, AtlasPrefersLeastAttainedService) {
  auto s = make_scheduler(SchedKind::Atlas, 4);
  cores[0].attained_service = 1000;
  cores[1].attained_service = 10;
  std::vector<QueuedRequest> q{make(5, 0, 0, 1), make(7, 1, 1, 50)};
  EXPECT_EQ(s->pick(q, view(q, 100)), 1u);
}

TEST_F(SchedFixture, ParBsMarksBatchAndServesItFirst) {
  auto s = make_scheduler(SchedKind::ParBs, 4);
  std::vector<QueuedRequest> q;
  for (int i = 0; i < 8; ++i) q.push_back(make(5 + i, 0, 0, i));
  s->tick(view(q, 0), q);  // forms a batch
  std::size_t marked = 0;
  for (const auto& r : q) marked += r.marked ? 1 : 0;
  EXPECT_EQ(marked, 5u);  // mark cap per (core, bank)

  // A newer request from another core in another bank is NOT preferred over
  // marked ones even if it would be a row hit.
  q.push_back(make(9, 1, 1, 100));
  const auto pick = s->pick(q, view(q, 200));
  ASSERT_NE(pick, kNoPick);
  EXPECT_TRUE(q[pick].marked);
}

TEST_F(SchedFixture, ParBsShortestJobFirstRanking) {
  auto s = make_scheduler(SchedKind::ParBs, 4);
  std::vector<QueuedRequest> q;
  // Core 0: heavy (5 requests to one bank); core 1: light (1 request).
  for (int i = 0; i < 5; ++i) q.push_back(make(5 + i, 0, 0, i));
  q.push_back(make(3, 1, 1, 10));
  s->tick(view(q, 0), q);
  // Both marked; light core (1) should rank higher -> picked first when
  // neither is a row hit.
  const auto pick = s->pick(q, view(q, 100));
  ASSERT_NE(pick, kNoPick);
  EXPECT_EQ(q[pick].req.core, 1u);
}

TEST_F(SchedFixture, TcmFavoursLatencySensitiveCluster) {
  auto s = make_scheduler(SchedKind::Tcm, 2, 1);
  // Core 0 consumed massive bandwidth in the last quantum; core 1 little.
  std::vector<QueuedRequest> q{make(5, 0, 0, 1), make(7, 1, 1, 50)};
  for (int i = 0; i < 100; ++i) s->on_service(q[0], view(q, 0));
  s->on_service(q[1], view(q, 0));
  s->tick(view(q, 100001), q);  // quantum boundary -> recluster
  EXPECT_EQ(s->pick(q, view(q, 100002)), 1u);
}

TEST_F(SchedFixture, RlSchedulerPicksValidIndexAndLearns) {
  auto s = make_rl(4, 1, 0.1, 0.1);
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;
  std::vector<QueuedRequest> q{make(5, 0, 0, 1), make(7, 1, 1, 2), make(9, 2, 2, 3)};
  for (int i = 0; i < 200; ++i) {
    const auto pick = s->pick(q, view(q, now + i));
    ASSERT_NE(pick, kNoPick);
    ASSERT_LT(pick, q.size());
    if (i % 3 == 0) s->on_service(q[pick], view(q, now + i));
  }
}

std::vector<std::uint8_t> image_of(const Scheduler& s) {
  ckpt::Sink sink;
  s.save_state(sink);
  return sink.take();
}

// The (action, state hash) of the RL decision a one-slot sink last saw;
// {0, 0} when tracing is compiled out.
std::pair<std::uint64_t, std::uint64_t> last_decision(const obs::TraceSink& sink) {
  if (sink.size() == 0) return {0, 0};
  const obs::TraceEvent e = sink.events().back();
  return {e.arg0, e.arg1};
}

// A restore target whose scan memo holds a valid slot must drop it: the
// controller's queue stamps are not checkpointed and restart after a
// restore, so the slot's key can recur over different queue contents.
// Here the target memoized queue `qb` under stamp 7, then takes the twin's
// state and sees `qa` under the same stamp, channel version and deadline —
// a stale slot would answer with qb's scan.
TEST_F(SchedFixture, RlLoadStateDropsTheScanMemo) {
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;  // row 5 hits are legal from here on
  std::vector<QueuedRequest> qa{make(5, 0, 0, 1), make(7, 1, 1, 2), make(9, 2, 2, 3),
                                make(5, 0, 3, 4), make(3, 3, 1, 5)};
  std::vector<QueuedRequest> qb{make(11, 6, 2, 1)};
  const auto versioned = [&](const std::vector<QueuedRequest>& q, Cycle at) {
    SchedView v = view(q, at);
    v.queue_version = 7;
    return v;
  };

  auto twin = make_rl(4, 5, 0.1, 0.2);
  auto target = make_rl(4, 5, 0.1, 0.2);
  obs::TraceSink twin_trace(1), target_trace(1);
  twin->set_trace(&twin_trace);
  target->set_trace(&target_trace);
  for (Cycle c = 0; c < 20; ++c) {
    twin->pick(qa, versioned(qa, now + c));
    target->pick(qb, versioned(qb, now + c));
  }

  const std::vector<std::uint8_t> image = image_of(*twin);
  ckpt::Source src(image);
  target->load_state(src);
  ASSERT_TRUE(src.done());

  for (Cycle c = 20; c < 200; ++c) {
    const std::size_t a = twin->pick(qa, versioned(qa, now + c));
    const std::size_t b = target->pick(qa, versioned(qa, now + c));
    ASSERT_EQ(a, b) << "cycle " << c;
    ASSERT_EQ(last_decision(twin_trace), last_decision(target_trace)) << "cycle " << c;
    if (c % 3 == 0) {
      twin->on_service(qa[a], versioned(qa, now + c));
      target->on_service(qa[b], versioned(qa, now + c));
    }
  }
  EXPECT_TRUE(image_of(*twin) == image_of(*target)) << "restored learning state diverged";
}

TEST_F(SchedFixture, AllSchedulersReturnValidIndicesUnderChurn) {
  // Churn test: random queue mutations; every policy must return in-range
  // indices or kNoPick, never crash.
  Rng rng(3);
  for (auto kind : {SchedKind::Fcfs, SchedKind::FrFcfs, SchedKind::FrFcfsCap,
                    SchedKind::ParBs, SchedKind::Atlas, SchedKind::Tcm, SchedKind::Bliss,
                    SchedKind::Rl}) {
    auto s = make_scheduler(kind, 4, 7);
    std::vector<QueuedRequest> q;
    for (Cycle now = 0; now < 2000; ++now) {
      if (q.size() < 16 && rng.chance(0.3))
        q.push_back(make(rng.next_below(64), static_cast<std::uint32_t>(rng.next_below(8)),
                         static_cast<std::uint32_t>(rng.next_below(4)), now));
      s->tick(view(q, now), q);
      const auto pick = s->pick(q, view(q, now));
      if (q.empty()) {
        EXPECT_EQ(pick, kNoPick) << to_string(kind);
        continue;
      }
      if (pick != kNoPick) {
        ASSERT_LT(pick, q.size()) << to_string(kind);
        if (rng.chance(0.5)) {
          s->on_service(q[pick], view(q, now));
          q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
    }
  }
}

// Forwards every Scheduler call to the wrapped policy and, on every pick,
// checks each queue entry's view answers against the channel itself: the
// test-only reference for the one query path (SchedTimingCache over
// QueueScanMeta). Mismatches are counted; the first is described.
class RecordingScheduler final : public Scheduler {
 public:
  RecordingScheduler(std::unique_ptr<Scheduler> inner, const dram::Channel& chan)
      : inner_(std::move(inner)), chan_(chan) {}

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    for (std::size_t i = 0; i < q.size(); ++i) {
      ++checked;
      if (v.live(i) != q[i].live) mismatch(v.now, i, "live");
      if (!q[i].live) continue;
      const dram::Coord& c = q[i].coord;
      const dram::Cmd cmd = chan_.required_cmd(c, q[i].req.type);
      const bool issuable = chan_.earliest(cmd, c, v.now) <= v.now;
      const bool hit = chan_.bank_open(c) && chan_.open_row(c) == c.row;
      const int cls = issuable ? (hit ? 2 : 1) : 0;
      ++classes[cls];
      if (v.issue_class(i) != cls) mismatch(v.now, i, "issue_class");
      if (v.issuable(i) != issuable) mismatch(v.now, i, "issuable");
      if (v.row_hit(i) != hit) mismatch(v.now, i, "row_hit");
      if (v.required_cmd(i) != cmd) mismatch(v.now, i, "required_cmd");
      const auto& g = chan_.config().geometry;
      if (v.bank(i) != c.rank * g.banks + c.bank || v.bank(i) >= v.bank_count())
        mismatch(v.now, i, "bank");
    }
    return inner_->pick(q, v);
  }
  void on_service(const QueuedRequest& r, const SchedView& v) override {
    const bool hit = chan_.bank_open(r.coord) && chan_.open_row(r.coord) == r.coord.row;
    if (v.row_hit(r) != hit) mismatch(v.now, 0, "row_hit(served)");
    inner_->on_service(r, v);
  }
  void tick(const SchedView& v, std::vector<QueuedRequest>& q) override {
    inner_->tick(v, q);
  }
  Cycle next_event(Cycle now) const override { return inner_->next_event(now); }
  std::string name() const override { return inner_->name(); }

  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t classes[3] = {};
  std::string first;

 private:
  void mismatch(Cycle now, std::size_t i, const char* what) {
    if (mismatches++ == 0)
      first = std::string(what) + " at cycle " + std::to_string(now) + ", entry " +
              std::to_string(i);
  }

  std::unique_ptr<Scheduler> inner_;
  const dram::Channel& chan_;
};

// Every policy, SALP off and on, on a saturated multi-core injection: every
// live entry's view answer must equal Channel::earliest(required_cmd(...)),
// the channel's open-row state and the entry's flat (rank, bank) id at
// every pick. Saturation matters: only
// full queues produce the repeated same-cycle queries the cache serves.
TEST(SchedViewReference, EveryQueryMatchesChannel) {
  // `sel` is a SchedKind, or -1 for MISE (not a factory kind).
  const auto run_world = [](int sel, bool salp) {
    auto dram_cfg = dram::DramConfig::ddr4_2400();
    dram_cfg.timings.salp = salp;
    ControllerConfig ctrl;
    ctrl.num_cores = 4;
    if (sel >= 0) ctrl.sched = static_cast<SchedKind>(sel);
    MemorySystem sys(dram_cfg, ctrl);
    auto rec = std::make_unique<RecordingScheduler>(
        sel < 0 ? make_mise(4) : make_scheduler(static_cast<SchedKind>(sel), 4, 7),
        sys.controller(0).channel());
    RecordingScheduler& r = *rec;
    sys.controller(0).set_scheduler(std::move(rec));

    struct Injector {
      std::unique_ptr<workloads::AccessStream> stream;
      std::uint32_t mlp = 0;
      std::uint32_t outstanding = 0;
    };
    std::vector<Injector> cores;
    workloads::StreamParams p;
    p.footprint = 48ull << 20;
    for (std::uint32_t i = 0; i < 4; ++i) {
      p.base = static_cast<Addr>(i) << 30;
      p.seed = 51 + i;
      if (i % 2 == 0) cores.push_back({workloads::make_streaming(p), 12, 0});
      else cores.push_back({workloads::make_random(p), 4, 0});
    }

    sim::run_event_loop(
        sys.clock_mode(), 0, 60'000,
        [&](Cycle now) {
          for (std::size_t i = 0; i < cores.size(); ++i) {
            auto& c = cores[i];
            while (c.outstanding < c.mlp) {
              const auto e = c.stream->next();
              Request req;
              req.addr = e.addr;
              req.type = e.type;
              req.core = static_cast<std::uint32_t>(i);
              req.arrive = now;
              if (!sys.can_accept(req.addr, req.type, req.core)) break;
              ++c.outstanding;
              if (!sys.enqueue(req, [&c](const Request&) { --c.outstanding; })) {
                --c.outstanding;
                break;
              }
            }
          }
          sys.tick(now);
        },
        [] { return false; },
        [&](Cycle now) {
          for (const auto& c : cores)
            if (c.outstanding < c.mlp) return now + 1;
          return sys.next_event(now);
        });
    EXPECT_EQ(r.mismatches, 0u) << "first: " << r.first;
    EXPECT_GT(r.checked, 0u);
    for (const std::uint64_t n : r.classes) EXPECT_GT(n, 0u) << "a class never occurred";
  };

  for (const bool salp : {false, true}) {
    for (int sel = -1; sel <= static_cast<int>(SchedKind::Rl); ++sel) {
      SCOPED_TRACE(std::string(salp ? "SALP " : "") +
                   (sel < 0 ? "MISE" : to_string(static_cast<SchedKind>(sel))));
      run_world(sel, salp);
    }
  }
}

// Runs one RL scheduler on the controller's versioned views and a twin
// with the same seed on the same views made unversioned (queue_version 0,
// so it rescans every pick), and counts every pick where the two disagree
// on the index or on the traced (action, state hash).
class RlMemoTwin final : public Scheduler {
 public:
  RlMemoTwin() : memo_(make_rl(4, 13, 0.1, 0.05)), rescan_(make_rl(4, 13, 0.1, 0.05)) {
    memo_->set_trace(&memo_trace_);
    rescan_->set_trace(&rescan_trace_);
  }

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    SchedView unversioned = v;
    unversioned.queue_version = 0;
    const std::size_t a = memo_->pick(q, v);
    const std::size_t b = rescan_->pick(q, unversioned);
    ++picks;
    if (v.queue_version != 0) ++versioned;
    if (a != b || last_decision(memo_trace_) != last_decision(rescan_trace_)) {
      if (mismatches++ == 0)
        first = "queue " + std::to_string(v.queue) + " at cycle " + std::to_string(v.now);
    }
    return a;
  }
  void on_service(const QueuedRequest& r, const SchedView& v) override {
    memo_->on_service(r, v);
    rescan_->on_service(r, v);
  }
  Cycle next_event(Cycle now) const override { return memo_->next_event(now); }
  std::string name() const override { return memo_->name(); }

  const Scheduler& memo() const { return *memo_; }
  const Scheduler& rescan() const { return *rescan_; }

  std::uint64_t picks = 0;
  std::uint64_t versioned = 0;
  std::uint64_t mismatches = 0;
  std::string first;

 private:
  std::unique_ptr<Scheduler> memo_;
  std::unique_ptr<Scheduler> rescan_;
  obs::TraceSink memo_trace_{1};
  obs::TraceSink rescan_trace_{1};
};

// The RL scan memo is exact: on a saturated 4-core injection over two
// ranks, SALP off and on, with power-down and self-refresh timeouts and
// idle windows so ranks fall asleep and wake mid-run, a scheduler that
// reuses its memoized scans makes the same pick with the same state hash
// as one that rescans every pick, and ends with the same learned state.
TEST(SchedViewReference, RlScanMemoMatchesRescan) {
  for (const bool salp : {false, true}) {
    SCOPED_TRACE(salp ? "SALP" : "no SALP");
    auto dram_cfg = dram::DramConfig::ddr4_2400();
    dram_cfg.timings.salp = salp;
    dram_cfg.geometry.ranks = 2;
    ControllerConfig ctrl;
    ctrl.num_cores = 4;
    ctrl.powerdown_timeout = 40;
    ctrl.selfrefresh_timeout = 1500;
    MemorySystem sys(dram_cfg, ctrl);
    auto twin = std::make_unique<RlMemoTwin>();
    RlMemoTwin& t = *twin;
    sys.controller(0).set_scheduler(std::move(twin));

    std::vector<sim::Injector> injectors;
    workloads::StreamParams p;
    p.footprint = 48ull << 20;
    for (std::uint32_t i = 0; i < 4; ++i) {
      p.base = static_cast<Addr>(i) << 30;
      p.seed = 71 + i;
      if (i % 2 == 0) injectors.push_back({workloads::make_streaming(p), 16});
      else injectors.push_back({workloads::make_random(p), 4});
    }
    sim::ClosedLoop cores(std::move(injectors));
    sim::ClosedLoop idle(std::vector<sim::Injector>{});
    Cycle now = 0;
    for (int window = 0; window < 6; ++window) {
      now = cores.run(sys, now, now + 8'000);
      now = idle.run(sys, now, now + 4'000);
    }

    const auto& st = sys.controller(0).stats();
    EXPECT_GT(st.powerdowns, 0u);
    EXPECT_GT(st.selfrefreshes, 0u);
    EXPECT_GT(st.rank_wakes, 0u);
    EXPECT_GT(t.versioned, 0u);
    EXPECT_GT(cores.total_served(), 0u);
    EXPECT_EQ(t.mismatches, 0u) << "first: " << t.first << " of " << t.picks << " picks";
    EXPECT_TRUE(image_of(t.memo()) == image_of(t.rescan())) << "learned state differs";
  }
}

TEST(SchedNames, ToStringCoversAll) {
  EXPECT_STREQ(to_string(SchedKind::Fcfs), "FCFS");
  EXPECT_STREQ(to_string(SchedKind::FrFcfs), "FR-FCFS");
  EXPECT_STREQ(to_string(SchedKind::ParBs), "PAR-BS");
  EXPECT_STREQ(to_string(SchedKind::Atlas), "ATLAS");
  EXPECT_STREQ(to_string(SchedKind::Tcm), "TCM");
  EXPECT_STREQ(to_string(SchedKind::Bliss), "BLISS");
  EXPECT_STREQ(to_string(SchedKind::Rl), "RL");
}

}  // namespace
}  // namespace ima::mem
