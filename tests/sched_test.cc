// Scheduler policy unit tests: each policy's signature behaviour on
// hand-built queues against a real channel. Hand-built queues keep the
// controller's arrival order (Scheduler::pick); oldest-first picks over
// requests stamped out of order are controller-level cases
// (controller_test.cc).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/ckpt.hh"
#include "common/clock.hh"
#include "common/rng.hh"
#include "dram/channel.hh"
#include "learn/qlearn.hh"
#include "mem/memsys.hh"
#include "mem/sched.hh"
#include "obs/trace.hh"
#include "sim/closed_loop.hh"
#include "workloads/stream.hh"

namespace ima::mem {
namespace {

// True when the entries of `q` that view `v` calls live have nondecreasing
// `arrive` (the queue order Scheduler::pick may rely on).
bool live_in_arrival_order(const std::vector<QueuedRequest>& q, const SchedView& v) {
  const QueuedRequest* prev = nullptr;
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (!v.live(i)) continue;
    if (prev && q[i].arrive < prev->arrive) return false;
    prev = &q[i];
  }
  return true;
}

// Two reads a test enqueues back to back: `late` first, then `early`,
// stamped before it, which the controller must insert ahead of `late`.
struct ArrivalPair {
  dram::Coord late, early;
  Cycle late_arrive = 0, early_arrive = 0;
};

// True when `q` holds the pair's `early` request live ahead of `late`, which
// the controller admitted first: the out-of-order arrival was inserted
// instead of appended. A default pair (early == late) never matches.
bool holds_inserted_arrival(const std::vector<QueuedRequest>& q, const SchedView& v,
                            const ArrivalPair& p) {
  bool early_seen = false;
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (!v.live(i)) continue;
    if (q[i].coord == p.early && q[i].arrive == p.early_arrive) early_seen = true;
    else if (early_seen && q[i].coord == p.late && q[i].arrive == p.late_arrive) return true;
  }
  return false;
}

struct SchedFixture : ::testing::Test {
  dram::DramConfig cfg = dram::DramConfig::ddr4_2400();
  dram::Channel chan{cfg, 0, nullptr};
  std::vector<CoreState> cores{std::vector<CoreState>(4)};

  SchedTimingCache cache{chan};
  std::vector<QueueScanMeta> meta;
  QueueOcc occ;

  // The view the controller would hand a scheduler over queue `q`: the
  // controller's meta and occupancy builders plus the timing cache, begun
  // at `now`. A queue out of arrival order breaks the pick contract, so
  // the test building it fails.
  SchedView view(const std::vector<QueuedRequest>& q, Cycle now) {
    meta.clear();
    for (const auto& r : q) meta.push_back(scan_meta(chan, r));
    if (occ.cnt.size() != chan.unit_count()) occ.reset(chan.unit_count(), cores.size());
    occ.rebuild(chan, q, meta.data());
    cache.begin(now);
    SchedView v{now, &cores, &cache, meta.data()};
    v.occ = &occ;
    if (!live_in_arrival_order(q, v)) ADD_FAILURE() << "hand-built queue out of arrival order";
    return v;
  }

  QueuedRequest make(Addr row, std::uint32_t bank, std::uint32_t core, Cycle arrive,
                     AccessType t = AccessType::Read) {
    QueuedRequest q;
    q.coord = dram::Coord{0, 0, bank, static_cast<std::uint32_t>(row), 0};
    q.core = core;
    q.arrive = arrive;
    q.type = t;
    return q;
  }
};

TEST(QueueOcc, ListsExactlyTheOccupiedUnits) {
  // add() and remove() keep `units` equal to the sorted set of units whose
  // total is positive, through units that drain and refill, so the
  // next_event kernel and RL's fold visit no drained unit.
  QueueOcc occ;
  occ.reset(32, 4);
  std::vector<std::vector<std::uint32_t>> cores_at(32);  // live requests' cores per unit
  Rng rng(0x0CC);
  for (int step = 0; step < 4000; ++step) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(32));
    if (rng.next_below(2) == 0 || cores_at[u].empty()) {
      const auto core = static_cast<std::uint32_t>(rng.next_below(6));
      occ.add(u, core, /*match=*/true);
      cores_at[u].push_back(core);
    } else {
      occ.remove(u, cores_at[u].back());
      cores_at[u].pop_back();
    }
    std::vector<std::uint32_t> occupied;
    std::size_t live = 0;
    for (std::uint32_t v = 0; v < 32; ++v) {
      ASSERT_EQ(occ.cnt[v].total, cores_at[v].size()) << "unit " << v;
      if (!cores_at[v].empty()) occupied.push_back(v);
      live += cores_at[v].size();
    }
    ASSERT_EQ(occ.units, occupied) << "step " << step;
    ASSERT_EQ(occ.live, live);
  }
}

TEST_F(SchedFixture, FactoryProducesAllKinds) {
  for (auto kind : {SchedKind::Fcfs, SchedKind::FrFcfs, SchedKind::FrFcfsCap,
                    SchedKind::ParBs, SchedKind::Atlas, SchedKind::Tcm, SchedKind::Bliss,
                    SchedKind::Rl}) {
    auto s = make_scheduler(kind, 4, 1);
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(s->name().empty());
  }
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

TEST_F(SchedFixture, FrFcfsCapBreaksStreak) {
  auto s = make_scheduler(SchedKind::FrFcfsCap, 4);
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;
  std::vector<QueuedRequest> q{make(7, 1, 1, 10), make(5, 0, 0, 50)};
  // Serve row hits up to the cap (streak counter trails services by one).
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(s->pick(q, view(q, now)), 1u) << "iteration " << i;
    s->on_service(q[1], view(q, now));
  }
  // Past the cap the oldest non-hit wins.
  EXPECT_EQ(s->pick(q, view(q, now)), 0u);
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
  EXPECT_EQ(q[pick].core, 1u);
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
// QueueScanMeta). Mismatches are counted; the first is described. It also
// counts the picks over a queue out of arrival order (the pick contract
// broken) and those over a queue holding `pair` inserted.
class RecordingScheduler final : public Scheduler {
 public:
  RecordingScheduler(std::unique_ptr<Scheduler> inner, const dram::Channel& chan)
      : inner_(std::move(inner)), chan_(chan) {}

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    if (!live_in_arrival_order(q, v)) ++order_violations;
    if (holds_inserted_arrival(q, v, pair)) ++inserted;
    for (std::size_t i = 0; i < q.size(); ++i) {
      ++checked;
      if (!v.live(i)) continue;
      const dram::Coord& c = q[i].coord;
      const dram::Cmd cmd = chan_.required_cmd(c, q[i].type);
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

  ArrivalPair pair;
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t order_violations = 0;
  std::uint64_t inserted = 0;
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
// Each window after the first also enqueues two requests, the second
// stamped 7 cycles before the first, into the busy queue: every pick must
// still see the queue in arrival order, with the inserted arrival ahead of
// the entries admitted before it.
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

    Cycle now = 0;
    for (int window = 0; window < 6; ++window) {
      if (window >= 1) {
        for (const Cycle back : {Cycle{0}, Cycle{7}}) {
          Request req;
          req.addr = (static_cast<Addr>(window) << 24) + (back << 12);
          req.core = 1;
          req.arrive = now - back;
          ASSERT_TRUE(sys.enqueue(req));
          (back == 0 ? r.pair.late : r.pair.early) = sys.mapper().decode(req.addr);
          (back == 0 ? r.pair.late_arrive : r.pair.early_arrive) = req.arrive;
        }
      }
      now = sim::run_event_loop(
          sys.clock_mode(), now, now + 10'000,
          [&](Cycle at) {
            for (std::size_t i = 0; i < cores.size(); ++i) {
              auto& c = cores[i];
              while (c.outstanding < c.mlp) {
                const auto e = c.stream->next();
                Request req;
                req.addr = e.addr;
                req.type = e.type;
                req.core = static_cast<std::uint32_t>(i);
                req.arrive = at;
                if (!sys.can_accept(req.addr, req.type, req.core)) break;
                ++c.outstanding;
                if (!sys.enqueue(req, [&c](const Request&) { --c.outstanding; })) {
                  --c.outstanding;
                  break;
                }
              }
            }
            sys.tick(at);
          },
          [] { return false; },
          [&](Cycle at) {
            for (const auto& c : cores)
              if (c.outstanding < c.mlp) return at + 1;
            return sys.next_event(at);
          });
    }
    EXPECT_EQ(r.mismatches, 0u) << "first: " << r.first;
    EXPECT_GT(r.inserted, 0u) << "no pick saw an inserted arrival";
    EXPECT_EQ(r.order_violations, 0u) << "a pick saw the queue out of arrival order";
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

// RL's state scan as it was before its features came from the
// controller's occupancy counts, kept as the reference: one pass over every
// live entry, asking the channel itself for each entry's required command,
// legality, open row and (rank, bank). It yields the hashed five features
// (live, row hits, issuable, distinct banks, max load over cores below
// `num_cores`), the issuable entries in queue order, the per-bank load and
// the oldest issuable row hit / issuable / live entry (strict `<` on
// arrival, so equal arrivals keep the lowest index).
struct RlScanReference {
  std::uint64_t state = 0;
  std::vector<std::uint32_t> ready;
  std::vector<std::uint32_t> bank_load;
  std::size_t oldest_hit = kNoPick;
  std::size_t oldest_ready = kNoPick;
  std::size_t oldest_live = kNoPick;
};

RlScanReference rl_scan_reference(const std::vector<QueuedRequest>& q, const SchedView& v,
                                  const dram::Channel& chan, std::uint32_t num_cores) {
  const auto& g = chan.config().geometry;
  RlScanReference r;
  r.bank_load.assign(static_cast<std::size_t>(g.ranks) * g.banks, 0);
  std::vector<std::uint32_t> core_load(num_cores, 0);
  Cycle hit_arrive = 0, ready_arrive = 0, live_arrive = 0;
  std::uint32_t live = 0, hits = 0, distinct_banks = 0, max_core_load = 0;
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (!v.live(i)) continue;
    const QueuedRequest& req = q[i];
    const dram::Coord& c = req.coord;
    ++live;
    if (r.oldest_live == kNoPick || req.arrive < live_arrive) {
      r.oldest_live = i;
      live_arrive = req.arrive;
    }
    const bool hit = chan.bank_open(c) && chan.open_row(c) == c.row;
    if (hit) ++hits;
    if (chan.earliest(chan.required_cmd(c, req.type), c, v.now) <= v.now) {
      r.ready.push_back(static_cast<std::uint32_t>(i));
      if (r.oldest_ready == kNoPick || req.arrive < ready_arrive) {
        r.oldest_ready = i;
        ready_arrive = req.arrive;
      }
      if (hit && (r.oldest_hit == kNoPick || req.arrive < hit_arrive)) {
        r.oldest_hit = i;
        hit_arrive = req.arrive;
      }
    }
    if (r.bank_load[c.rank * g.banks + c.bank]++ == 0) ++distinct_banks;
    if (req.core < num_cores) max_core_load = std::max(max_core_load, ++core_load[req.core]);
  }
  const auto bucket = [](std::uint32_t x) -> std::uint64_t {
    std::uint64_t b = 0;
    while (x > 0 && b < 7) {
      x >>= 1;
      ++b;
    }
    return b;
  };
  learn::StateHash h;
  h.add(bucket(live))
      .add(bucket(hits))
      .add(bucket(static_cast<std::uint32_t>(r.ready.size())))
      .add(bucket(distinct_banks))
      .add(bucket(max_core_load));
  r.state = h.value();
  return r;
}

// The index RL must return for `action` (0 row hit, 1 oldest, 2 least
// attained service, 3 deepest bank) over the reference scan, with its
// fallback chain: oldest issuable, then oldest live.
std::size_t rl_pick_reference(const RlScanReference& r, const std::vector<QueuedRequest>& q,
                              const std::vector<CoreState>& cores, std::uint32_t banks,
                              std::uint64_t action) {
  std::size_t best = kNoPick;
  std::uint64_t best_score = 0;
  for (const std::uint32_t i : r.ready) {
    const QueuedRequest& e = q[i];
    if (action == 2) {
      const std::uint64_t sv =
          e.core < cores.size() ? cores[e.core].attained_service : 0;
      if (best == kNoPick || sv < best_score) {
        best = i;
        best_score = sv;
      }
    } else if (action == 3) {
      const std::uint64_t load = r.bank_load[e.coord.rank * banks + e.coord.bank];
      if (best == kNoPick || load > best_score) {
        best = i;
        best_score = load;
      }
    }
  }
  if (action == 0) best = r.oldest_hit;
  if (action == 1) best = r.oldest_ready;
  if (best != kNoPick) return best;
  return r.oldest_ready != kNoPick ? r.oldest_ready : r.oldest_live;
}

// Wraps make_rl(rl_cores, ...) and, on every pick, checks the traced
// (action, state hash) and the returned index against the reference scan.
// Counts what the run covered: picks over queues holding an inserted
// arrival and over queues holding a core id at or above the controller's
// core count, and each action taken; and the picks over a queue out of
// arrival order.
class RlReferenceCheck final : public Scheduler {
 public:
  RlReferenceCheck(std::uint32_t rl_cores, std::uint32_t ctrl_cores, const dram::Channel& chan)
      : inner_(make_rl(rl_cores, 13, 0.1, 0.05)),
        rl_cores_(rl_cores),
        ctrl_cores_(ctrl_cores),
        chan_(chan) {
    inner_->set_trace(&trace_);
  }

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    const std::size_t idx = inner_->pick(q, v);
    ++picks;
    if (trace_.size() == 0) return idx;  // tracing compiled out: nothing to compare
    ++traced;
    const auto [action, state] = last_decision(trace_);
    const RlScanReference ref = rl_scan_reference(q, v, chan_, rl_cores_);
    if (action < 4) ++actions[action];
    if (holds_inserted_arrival(q, v, pair)) ++inserted;
    if (!live_in_arrival_order(q, v)) ++order_violations;
    for (std::size_t i = 0; i < q.size(); ++i)
      if (v.live(i) && q[i].core >= ctrl_cores_) {
        ++high_core;
        break;
      }
    if (!ref.ready.empty()) ++with_ready;
    if (state != ref.state) mismatch(v, "state hash");
    if (idx != rl_pick_reference(ref, q, *v.cores, chan_.config().geometry.banks, action))
      mismatch(v, "picked index");
    return idx;
  }
  void on_service(const QueuedRequest& r, const SchedView& v) override {
    inner_->on_service(r, v);
  }
  Cycle next_event(Cycle now) const override { return inner_->next_event(now); }
  std::string name() const override { return inner_->name(); }

  ArrivalPair pair;
  std::uint64_t picks = 0;
  std::uint64_t traced = 0;
  std::uint64_t with_ready = 0;
  std::uint64_t inserted = 0;
  std::uint64_t order_violations = 0;
  std::uint64_t high_core = 0;
  std::uint64_t actions[4] = {};
  std::uint64_t mismatches = 0;
  std::string first;

 private:
  void mismatch(const SchedView& v, const char* what) {
    if (mismatches++ == 0)
      first = std::string(what) + " on queue " + std::to_string(v.queue) + " at cycle " +
              std::to_string(v.now);
  }

  std::unique_ptr<Scheduler> inner_;
  std::uint32_t rl_cores_;
  std::uint32_t ctrl_cores_;
  const dram::Channel& chan_;
  obs::TraceSink trace_{1};
};

// RL's state features come from the controller's occupancy counts and its
// ready set from one pass that only runs when a unit has a legal class, all
// behind the scan memo. On every pick this must equal the per-entry
// reference: same state hash (the five features), same index for the action
// taken (the ready list and the three oldest candidates). The run is a
// saturated injection from eight cores on a four-core controller, over two
// ranks with power-down and self-refresh timeouts and idle windows (ranks
// sleep and wake mid-run), SALP off and on, with PIM ops queued mid-run
// (they open no unit, so the counts stay exact across them) and
// out-of-order arrivals (the controller inserts them in arrival order),
// under RL
// instances that count eight cores (ids at or above the controller's four)
// and two.
TEST(SchedViewReference, RlStateMatchesEntryScan) {
  for (const bool salp : {false, true}) {
    for (const std::uint32_t rl_cores : {8u, 2u}) {
      SCOPED_TRACE(std::string(salp ? "SALP" : "no SALP") + ", RL over " +
                   std::to_string(rl_cores) + " cores");
      auto dram_cfg = dram::DramConfig::ddr4_2400();
      dram_cfg.timings.salp = salp;
      dram_cfg.geometry.ranks = 2;
      ControllerConfig ctrl;
      ctrl.num_cores = 4;
      ctrl.powerdown_timeout = 40;
      ctrl.selfrefresh_timeout = 1500;
      MemorySystem sys(dram_cfg, ctrl);
      Controller& mc = sys.controller(0);
      auto check = std::make_unique<RlReferenceCheck>(rl_cores, ctrl.num_cores, mc.channel());
      RlReferenceCheck& c = *check;
      mc.set_scheduler(std::move(check));

      std::vector<sim::Injector> injectors;
      workloads::StreamParams p;
      p.footprint = 48ull << 20;
      for (std::uint32_t i = 0; i < 8; ++i) {
        // One 64 MB subarray per core: under SALP, cores sharing a bank
        // occupy different units of it.
        p.base = static_cast<Addr>(i) << 26;
        p.seed = 71 + i;
        if (i % 2 == 0) injectors.push_back({workloads::make_streaming(p), 8});
        else injectors.push_back({workloads::make_random(p), 4});
      }
      sim::ClosedLoop cores(std::move(injectors));
      sim::ClosedLoop idle(std::vector<sim::Injector>{});
      Cycle now = 0;
      for (int window = 0; window < 6; ++window) {
        if (window % 2 == 1) {
          PimOp op;
          op.cmd = dram::Cmd::AapFpm;
          op.bank = dram::Coord{0, static_cast<std::uint32_t>(window / 2 % 2),
                                static_cast<std::uint32_t>(window), 1, 0};
          op.args.src_row = 1;
          op.args.dst_row = 2;
          mc.enqueue_pim(std::move(op));
        }
        if (window >= 2) {
          // The queues drained in the idle window: the second request
          // arrives before the first, so the controller inserts it ahead
          // of the first.
          for (const Cycle back : {Cycle{0}, Cycle{7}}) {
            Request r;
            r.addr = (static_cast<Addr>(window) << 24) + (back << 12);
            r.core = 1;
            r.arrive = now - back;
            ASSERT_TRUE(sys.enqueue(r));
            (back == 0 ? c.pair.late : c.pair.early) = sys.mapper().decode(r.addr);
            (back == 0 ? c.pair.late_arrive : c.pair.early_arrive) = r.arrive;
          }
        }
        now = cores.run(sys, now, now + 8'000);
        now = idle.run(sys, now, now + 4'000);
      }

      const auto& st = mc.stats();
      EXPECT_GT(st.powerdowns, 0u);
      EXPECT_GT(st.selfrefreshes, 0u);
      EXPECT_GT(st.rank_wakes, 0u);
      EXPECT_EQ(st.pim_ops_done, 3u);
      EXPECT_GT(cores.total_served(), 0u);
      if (c.traced == 0) GTEST_SKIP() << "tracing compiled out: no decisions to compare";
      EXPECT_EQ(c.traced, c.picks);
      EXPECT_GT(c.with_ready, 0u);
      EXPECT_GT(c.inserted, 0u);
      EXPECT_EQ(c.order_violations, 0u);
      EXPECT_GT(c.high_core, 0u);
      for (const std::uint64_t n : c.actions) EXPECT_GT(n, 0u) << "an action never occurred";
      EXPECT_EQ(c.mismatches, 0u) << "first: " << c.first << " of " << c.picks << " picks";
    }
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
