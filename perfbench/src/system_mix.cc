// system_mix: a full System — four cores (streaming, random, Zipf and
// pointer-chase), private L1s, a shared 2 MB L2 with a stride prefetcher,
// and two DDR4 channels under FR-FCFS with refresh, where L2 writebacks
// compete with reads. Set-up warms the caches, drains to quiescence, seals
// a checkpoint file and restores it into a fresh twin; the timed phase runs
// the twin to its instruction limit. This is the one workload where the
// cores, caches, skip-ahead kernel and checkpoint code do most of the work,
// and it starts warm.
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <sstream>

#include "bench.hh"
#include "obs/stat_registry.hh"
#include "sim/system.hh"

namespace perfbench {

using namespace ima;

namespace {

struct Probes {
  std::vector<TimedStream*> streams;
  std::vector<TimedScheduler*> scheds;

  Span stream_total() const {
    Span s;
    for (const auto* t : streams) s += t->next_span();
    return s;
  }
  Span pick_total() const {
    Span s;
    for (const auto* t : scheds) s += t->pick_span();
    return s;
  }
};

/// Builds one system from the seed; with `probes` the streams and the
/// schedulers are wrapped in timing decorators (which simulate identically).
std::unique_ptr<sim::System> build(const sim::SystemConfig& cfg, std::uint64_t seed,
                                   Probes* probes) {
  std::vector<std::unique_ptr<workloads::AccessStream>> streams;
  const auto params = [&](std::uint32_t i, std::uint64_t footprint) {
    workloads::StreamParams p;
    p.base = static_cast<Addr>(i) << 30;
    p.footprint = footprint;
    p.seed = seed * 4 + i;
    return p;
  };
  streams.push_back(workloads::make_streaming(params(0, 32ull << 20), /*stride_bytes=*/16));
  streams.push_back(workloads::make_random(params(1, 4ull << 20)));
  streams.push_back(workloads::make_zipf(params(2, 2ull << 20), 0.9));
  streams.push_back(workloads::make_pointer_chase(params(3, 1ull << 20)));
  if (probes) {
    for (auto& s : streams) {
      auto t = std::make_unique<TimedStream>(std::move(s));
      probes->streams.push_back(t.get());
      s = std::move(t);
    }
  }
  auto sys = std::make_unique<sim::System>(cfg, std::move(streams));
  if (probes) {
    for (std::uint32_t c = 0; c < sys->memory().num_channels(); ++c) {
      auto t = std::make_unique<TimedScheduler>(
          mem::make_scheduler(cfg.ctrl.sched, cfg.ctrl.num_cores, cfg.ctrl.seed));
      probes->scheds.push_back(t.get());
      sys->memory().controller(c).set_scheduler(std::move(t));
    }
  }
  return sys;
}

std::string render(const sim::System& sys) {
  obs::StatRegistry reg;
  sys.register_stats(reg);
  std::ostringstream os;
  for (const auto& v : reg.snapshot().values) os << v.path << '=' << v.value << '\n';
  return os.str();
}

struct CacheTotals {
  double l1_hits = 0, l1_accesses = 0, l2_hits = 0, l2_accesses = 0;
  double pf_issued = 0, pf_useful = 0;
};

CacheTotals cache_totals(const sim::System& sys, std::uint32_t cores) {
  CacheTotals t;
  for (std::uint32_t i = 0; i < cores; ++i) {
    t.l1_hits += sys.l1(i).stats().hits;
    t.l1_accesses += sys.l1(i).stats().hits + sys.l1(i).stats().misses;
  }
  t.l2_hits = sys.l2().stats().hits;
  t.l2_accesses = sys.l2().stats().hits + sys.l2().stats().misses;
  t.pf_issued = sys.prefetch_stats().issued;
  t.pf_useful = sys.prefetch_stats().useful;
  return t;
}

}  // namespace

Rep run_system_mix(const Params& p, bool trace) {
  Rep rep;
  Layers* const L = trace ? &rep.layers : nullptr;
  const auto setup_t0 = Clock::now();
  sim::SystemConfig cfg;
  cfg.num_cores = 4;
  cfg.ctrl.num_cores = 4;
  cfg.dram.geometry.channels = 2;
  cfg.prefetch = sim::PrefetchKind::Stride;
  cfg.ctrl.record_spans = trace;
  cfg.core.instr_limit = p.small ? 100'000 : 400'000;
  const Cycle warm_cycles = p.small ? 20'000 : 600'000;
  const Cycle deadline = 1'000'000'000;
  const std::string path =
      (p.workdir.empty() ? std::string(".") : p.workdir) + "/system_mix.ckpt";

  Probes probes_a, probes_b;
  auto a = build(cfg, p.seed, L ? &probes_a : nullptr);
  a->run(warm_cycles);
  timed(L ? &L->drain : nullptr, [&] { a->memory().drain(a->now()); });
  timed(L ? &L->save : nullptr, [&] { a->save(path); });
  auto b = build(cfg, p.seed, L ? &probes_b : nullptr);
  timed(L ? &L->restore : nullptr, [&] { b->restore(path); });
  if (L) L->ckpt_bytes = std::filesystem::file_size(path);
  std::remove(path.c_str());
  rep.setup_s = seconds_since(setup_t0);

  const Cycle start = b->now();
  const double energy0 = b->energy().total();
  const CacheTotals c0 = cache_totals(*b, cfg.num_cores);
  const CtrlTotals ctrl0 = controller_totals(b->memory());
  const Span next0 = probes_b.stream_total(), pick0 = probes_b.pick_total();
  std::uint64_t instr0 = 0;
  for (std::uint32_t i = 0; i < cfg.num_cores; ++i) instr0 += b->core_at(i).stats().instructions;

  const auto t0 = Clock::now();
  const Cycle end = timed(L ? &L->system_run : nullptr, [&] { return b->run(deadline); });
  rep.wall_s = seconds_since(t0);

  std::uint64_t instr = 0;
  for (std::uint32_t i = 0; i < cfg.num_cores; ++i) {
    rep.check(b->core_at(i).done(), "system_mix: a core missed its instruction limit");
    instr += b->core_at(i).stats().instructions;
  }
  rep.sim_cycles = end - start;
  rep.sim_energy_uj = (b->energy().total() - energy0) / 1e6;
  for (std::uint32_t c = 0; c < b->memory().num_channels(); ++c)
    rep.sim_read_p99_cycles = std::max(
        rep.sim_read_p99_cycles, b->memory().controller(c).stats().read_latency.percentile(0.99));
  rep.ops = instr - instr0;

  if (L) {
    // The restored twin must match the run that never left memory.
    const Cycle ref_end = a->run(deadline);
    rep.check(ref_end == end && render(*a) == render(*b),
              "system_mix: restored twin diverges from the uninterrupted run");
    const CacheTotals c1 = cache_totals(*b, cfg.num_cores);
    L->covered_s = L->system_run.seconds;
    L->stream_next = probes_b.stream_total();
    L->stream_next -= next0;
    L->pick = probes_b.pick_total();
    L->pick -= pick0;
    const auto ipcs = b->core_ipcs();
    L->ipc_mean = std::accumulate(ipcs.begin(), ipcs.end(), 0.0) / static_cast<double>(ipcs.size());
    L->l1_hit_rate = ratio(c1.l1_hits - c0.l1_hits, c1.l1_accesses - c0.l1_accesses);
    L->l2_hit_rate = ratio(c1.l2_hits - c0.l2_hits, c1.l2_accesses - c0.l2_accesses);
    L->prefetch_useful = ratio(c1.pf_useful - c0.pf_useful, c1.pf_issued - c0.pf_issued);
    fill_controller_layers(ctrl0, controller_totals(b->memory()), *L);
  }
  return rep;
}

}  // namespace perfbench
