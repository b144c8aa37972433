// serving_open: open loop. Sixteen tensor-serving instances on eight DDR4
// channels feed MemoryService::pump with Poisson inference arrivals at one
// fixed offered load just past C25's latency knee, sharded over two
// workers. It is the one workload on the shard feed, epoch barriers,
// mailboxes and the service facade. Latency is source-to-data: completion
// minus the intended arrival, so time spent waiting for a queue slot counts.
#include <algorithm>

#include "bench.hh"
#include "common/rng.hh"
#include "obs/tail.hh"
#include "service/facade.hh"
#include "workloads/tensor.hh"

namespace perfbench {

using namespace ima;

namespace {

constexpr Cycle kMeanInterarrival = 10'000;  // per instance, C25's post-knee point
constexpr unsigned kShards = 2;

/// `n` arrivals of a Poisson process conditioned on exactly `n` events in
/// [from, from + n * kMeanInterarrival): sorted uniform draws. Conditioning
/// fixes the offered load and the window, so the seed moves arrival times
/// but not how much simulated time the work spans.
std::vector<Cycle> poisson_arrivals(Rng& rng, std::uint64_t n, Cycle from) {
  std::vector<Cycle> t(n);
  for (auto& a : t) a = from + rng.next_below(n * kMeanInterarrival);
  std::sort(t.begin(), t.end());
  return t;
}

struct Outcome {
  std::uint64_t arrivals = 0, completions = 0, checksum = 0;
  Cycle last_complete = 0, cycles = 0;
  bool clipped = false;
  double span_error = 0;
  double p99 = 0;
  PicoJoule energy = 0;
  Span pump, tensor_next, pick;
  unsigned workers = 0;
  std::uint64_t clips = 0;
  CtrlTotals ctrl0, ctrl1;
};

/// One serving run: `warm` inferences per instance (untimed, not measured),
/// then `inferences` more in the timed pump. `setup_s` receives the set-up
/// time, `wall_s` the timed pump's.
Outcome serve(std::uint64_t seed, std::uint64_t warm, std::uint64_t inferences, unsigned shards,
              bool probes, double* setup_s, double* wall_s) {
  const auto setup_t0 = Clock::now();
  auto dram_cfg = dram::DramConfig::ddr4_2400();
  dram_cfg.geometry.channels = 8;
  mem::ControllerConfig ctrl;
  ctrl.record_spans = true;
  mem::MemorySystem sys(dram_cfg, ctrl);
  std::vector<TimedScheduler*> scheds;
  if (probes) {
    for (std::uint32_t c = 0; c < sys.num_channels(); ++c) {
      auto t = std::make_unique<TimedScheduler>(
          mem::make_scheduler(ctrl.sched, ctrl.num_cores, ctrl.seed));
      scheds.push_back(t.get());
      sys.controller(c).set_scheduler(std::move(t));
    }
  }
  sys.set_shards(shards);
  service::MemoryService svc(sys);

  workloads::TensorConfig tc;  // C25's tile shape
  tc.m = 32;
  tc.n = 32;
  tc.k = 64;
  tc.tile_m = 16;
  tc.tile_n = 16;
  tc.tile_k = 32;
  tc.act_streams = 2;
  const workloads::TensorTraffic traffic(tc);
  const std::uint64_t lines = traffic.accesses_per_pass();
  const auto& g = dram_cfg.geometry;
  const std::uint32_t nch = sys.num_channels();
  const std::uint32_t instances = 2 * nch;
  const std::uint64_t inst_lines = (traffic.footprint_bytes() + kLineBytes - 1) / kLineBytes;
  const std::uint64_t slots = g.rows_per_bank() * g.banks * g.ranks * g.columns / inst_lines;

  struct Inst {
    std::uint32_t id = 0;
    Rng rng;
    std::vector<Cycle> arrivals;  // intended arrival of each inference
    std::size_t next = 0;         // index of the current inference
    Cycle t = 0;                  // arrivals[next]
    std::uint64_t cursor = 0;     // next access within the current pass
    std::uint64_t line_base = 0;
  };
  // Channel ch's feeder touches only by_ch[ch] and next_span[ch], which keeps
  // the sourced drain width-invariant and the probes free of races.
  std::vector<std::vector<Inst>> by_ch(nch);
  Rng place(seed ^ 0x5EED);
  for (std::uint32_t i = 0; i < instances; ++i) {
    Inst in;
    in.id = i;
    in.rng.reseed(seed * 64 + i);
    in.line_base = place.next_below(slots) * inst_lines;  // the seed moves the footprint
    by_ch[i % nch].push_back(std::move(in));
  }
  std::vector<Span> next_span(nch);

  Outcome out;
  obs::TailRecorder lat;
  bool measuring = false;
  mem::MemorySystem::ChannelSource src;
  src.next = [&](std::uint32_t ch, Cycle, mem::Request& r) {
    return timed(probes ? &next_span[ch] : nullptr, [&] {
      Inst* best = nullptr;
      for (auto& in : by_ch[ch])
        if (in.next < in.arrivals.size() &&
            (!best || in.t < best->t || (in.t == best->t && in.id < best->id)))
          best = &in;
      if (!best) return false;
      const auto acc = traffic.at(best->cursor);
      std::uint64_t l = best->line_base + acc.offset / kLineBytes;
      dram::Coord c;
      c.channel = ch;
      c.column = static_cast<std::uint32_t>(l % g.columns);
      l /= g.columns;
      c.bank = static_cast<std::uint32_t>(l % g.banks);
      l /= g.banks;
      c.rank = static_cast<std::uint32_t>(l % g.ranks);
      l /= g.ranks;
      c.row = static_cast<std::uint32_t>(l % g.rows_per_bank());
      r = mem::Request{};
      r.addr = sys.mapper().encode(c);
      r.type = acc.type;
      r.core = best->id;
      r.arrive = best->t;  // time-dated feed: held until this cycle
      r.tag = best->t;     // intended arrival, for source-to-data latency
      if (++best->cursor == lines) {
        best->cursor = 0;
        if (++best->next < best->arrivals.size()) best->t = best->arrivals[best->next];
      }
      return true;
    });
  };
  src.on_complete = [&](std::uint32_t ch, const mem::Request& done) {
    if (!measuring) return;
    lat.add(done.complete - done.tag);
    out.checksum = (out.checksum * 1099511628211ull) ^ done.addr ^
                   (static_cast<std::uint64_t>(done.complete) << 1) ^ ch;
    out.last_complete = std::max(out.last_complete, done.complete);
    ++out.completions;
  };

  const auto arm = [&](std::uint64_t n, Cycle from) {
    for (auto& chan : by_ch)
      for (auto& in : chan) {
        in.arrivals = poisson_arrivals(in.rng, n, from);
        in.next = 0;
        in.t = in.arrivals.front();
      }
  };
  arm(warm, 0);
  Cycle now = svc.pump(src, 0);
  out.clipped = sys.last_drain_clipped();
  *setup_s = seconds_since(setup_t0);

  arm(inferences, now);
  const std::uint64_t pushed0 = svc.pushed();
  const PicoJoule energy0 = sys.total_energy(now);
  out.ctrl0 = controller_totals(sys);
  for (const auto* t : scheds) out.pick -= t->pick_span();
  for (auto& s : next_span) s = Span{};
  const Cycle start = now;
  measuring = true;
  const auto t0 = Clock::now();
  now = timed(probes ? &out.pump : nullptr, [&] { return svc.pump(src, now); });
  *wall_s = seconds_since(t0);

  out.clipped = out.clipped || sys.last_drain_clipped();
  out.arrivals = svc.pushed() - pushed0;
  out.p99 = lat.percentile(0.99);
  out.energy = sys.total_energy(out.last_complete) - energy0;
  out.cycles = out.last_complete - start;
  out.workers = sys.shard_workers_used();
  out.clips = sys.drain_deadline_clips();
  out.ctrl1 = controller_totals(sys);
  for (const auto& s : next_span) out.tensor_next += s;
  for (const auto* t : scheds) out.pick += t->pick_span();
  // The four stages must sum exactly to the end-to-end read latency.
  double span_sum = 0, e2e_sum = 0;
  for (std::uint32_t ch = 0; ch < nch; ++ch) {
    const auto* sp = sys.controller(ch).spans();
    span_sum += sp->queue.sum() + sp->stall.sum() + sp->refresh.sum() + sp->xfer.sum();
    e2e_sum += sys.controller(ch).stats().read_latency.sum();
  }
  out.span_error = span_sum - e2e_sum;
  return out;
}

}  // namespace

Rep run_serving_open(const Params& p, bool trace) {
  Rep rep;
  Layers* const L = trace ? &rep.layers : nullptr;
  const std::uint64_t warm = p.small ? 1 : 2;
  const std::uint64_t inferences = p.small ? 2 : 24;
  const Outcome o = serve(p.seed, warm, inferences, kShards, trace, &rep.setup_s, &rep.wall_s);
  rep.check(o.arrivals == o.completions, "serving_open: arrivals and completions differ");
  rep.check(!o.clipped, "serving_open: a drain hit its deadline");
  rep.check(o.span_error == 0, "serving_open: span stages do not sum to the read latency");
  rep.sim_cycles = o.cycles;
  rep.sim_energy_uj = o.energy / 1e6;
  rep.sim_read_p99_cycles = o.p99;
  rep.ops = o.arrivals;
  if (L) {
    double setup_s = 0, wall_s = 0;
    const Outcome serial = serve(p.seed, warm, inferences, 1, false, &setup_s, &wall_s);
    rep.check(serial.checksum == o.checksum && serial.last_complete == o.last_complete,
              "serving_open: 1-shard and 2-shard runs diverge");
    L->pump = o.pump;
    L->tensor_next = o.tensor_next;
    L->pick = o.pick;
    L->covered_s = o.pump.seconds;
    L->pushed = o.arrivals;
    L->completed = o.completions;
    L->shard_workers = o.workers;
    L->drain_clips = o.clips;
    fill_controller_layers(o.ctrl0, o.ctrl1, *L);
  }
  return rep;
}

}  // namespace perfbench
