// sched_rl: closed loop. Four MLP-window injectors with C5's heterogeneous
// mix (a streaming hog at MLP 16, random at MLP 2, row-local at MLP 8, Zipf
// at MLP 4, 20% writes each) drive one DDR4-2400 channel under the online
// Q-learning scheduler. RL pick() dominates C5's host time, and no other
// workload runs the RL policy, so this is where scheduler work shows.
#include <algorithm>

#include "bench.hh"
#include "obs/tail.hh"

namespace perfbench {

using namespace ima;

namespace {

struct Injector {
  std::unique_ptr<workloads::AccessStream> stream;
  std::uint32_t mlp = 1;
  std::uint32_t outstanding = 0;
  bool has_pending = false;  // drawn but not yet admitted: no draw is ever dropped
  workloads::TraceEntry pending;
};

std::vector<Injector> hetero_mix(std::uint64_t seed) {
  workloads::StreamParams p;
  p.footprint = 48ull << 20;
  p.write_fraction = 0.2;
  std::vector<Injector> v(4);
  const auto params = [&](std::uint32_t i) {
    workloads::StreamParams q = p;
    q.base = static_cast<Addr>(i) << 30;
    q.seed = seed * 4 + i;
    return q;
  };
  v[0].stream = workloads::make_streaming(params(0));
  v[0].mlp = 16;
  v[1].stream = workloads::make_random(params(1));
  v[1].mlp = 2;
  v[2].stream = workloads::make_row_local(params(2), 24, 8192);
  v[2].mlp = 8;
  v[3].stream = workloads::make_zipf(params(3), 0.9);
  v[3].mlp = 4;
  return v;
}

}  // namespace

Rep run_sched_rl(const Params& p, bool trace) {
  Rep rep;
  Layers* const L = trace ? &rep.layers : nullptr;
  const auto setup_t0 = Clock::now();
  const std::uint64_t warm_served = p.small ? 2'000 : 15'000;
  const std::uint64_t target = p.small ? 8'000 : 50'000;
  const Cycle deadline = 50 * (warm_served + target);  // ~5x the cycles needed

  auto dram_cfg = dram::DramConfig::ddr4_2400();
  dram_cfg.geometry.channels = 1;
  mem::ControllerConfig ctrl;
  ctrl.num_cores = 4;
  ctrl.record_spans = trace;
  mem::MemorySystem sys(dram_cfg, ctrl);
  auto rl = mem::make_rl(ctrl.num_cores, /*seed=*/11, /*alpha=*/0.1, /*epsilon=*/0.05);
  TimedScheduler* timed_rl = nullptr;
  if (L) {
    auto t = std::make_unique<TimedScheduler>(std::move(rl));
    timed_rl = t.get();
    rl = std::move(t);
  }
  sys.controller(0).set_scheduler(std::move(rl));

  auto cores = hetero_mix(p.seed);
  std::uint32_t below_mlp = static_cast<std::uint32_t>(cores.size());
  std::uint64_t served = 0;
  bool timing = false;
  obs::TailRecorder read_lat;
  Span* const s_next = L ? &L->stream_next : nullptr;
  Span* const s_accept = L ? &L->can_accept : nullptr;
  Span* const s_enqueue = L ? &L->enqueue : nullptr;
  Span* const s_tick = L ? &L->tick : nullptr;
  Span* const s_event = L ? &L->next_event : nullptr;

  const auto inject = [&](Cycle now) {
    for (std::uint32_t i = 0; i < cores.size(); ++i) {
      Injector& in = cores[i];
      while (in.outstanding < in.mlp) {
        if (!in.has_pending) {
          in.pending = timed(s_next, [&] { return in.stream->next(); });
          in.has_pending = true;
        }
        if (L) ++L->accept_attempts;
        if (!timed(s_accept, [&] { return sys.can_accept(in.pending.addr, in.pending.type, i); }))
          break;
        mem::Request r;
        r.addr = in.pending.addr;
        r.type = in.pending.type;
        r.core = i;
        r.arrive = now;
        const bool ok = timed(s_enqueue, [&] {
          return sys.enqueue(r, [&in, &below_mlp, &served, &timing, &read_lat](
                                    const mem::Request& done) {
            if (in.outstanding-- == in.mlp) ++below_mlp;
            ++served;
            if (timing && done.type == AccessType::Read)
              read_lat.add(done.complete - done.arrive);
          });
        });
        if (!ok) break;
        if (L) ++L->accepted;
        in.has_pending = false;
        if (++in.outstanding == in.mlp) --below_mlp;
      }
    }
  };

  // Inject then tick on every cycle a window has room; while every window
  // is full, skip ahead to the memory system's next event.
  Cycle now = 0;
  const auto run_until = [&](std::uint64_t goal) {
    while (served < goal && now < deadline) {
      if (below_mlp > 0) inject(now);
      timed(s_tick, [&] { sys.tick(now); });
      Cycle next = now + 1;
      if (below_mlp == 0) next = std::max(next, timed(s_event, [&] { return sys.next_event(now); }));
      now = std::min(next, deadline);
    }
  };

  run_until(warm_served);
  rep.setup_s = seconds_since(setup_t0);
  if (L) *L = Layers{};  // the trace covers the timed phase only

  const Span pick0 = timed_rl ? timed_rl->pick_span() : Span{};
  const CtrlTotals ctrl0 = controller_totals(sys);
  const Cycle start = now;
  const std::uint64_t served0 = served;
  const PicoJoule energy0 = sys.total_energy(start);
  timing = true;
  const auto t0 = Clock::now();
  run_until(served0 + target);
  rep.wall_s = seconds_since(t0);

  rep.check(served >= served0 + target, "sched_rl: served target missed before the deadline");
  rep.sim_cycles = now - start;
  rep.sim_energy_uj = (sys.total_energy(now) - energy0) / 1e6;
  rep.sim_read_p99_cycles = read_lat.percentile(0.99);
  rep.ops = served - served0;
  if (L) {
    L->pick = timed_rl->pick_span();
    L->pick -= pick0;
    L->covered_s = L->tick.seconds + L->next_event.seconds + L->can_accept.seconds +
                   L->enqueue.seconds + L->stream_next.seconds;
    L->cycles_ticked = now - start;
    fill_controller_layers(ctrl0, controller_totals(sys), *L);
  }
  return rep;
}

}  // namespace perfbench
