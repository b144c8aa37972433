// smoke — tier-1 telemetry check: a tiny simulated run must leave behind a
// well-formed BENCH_smoke.json (via the implicit bench report) and a
// TRACE_smoke.json Chrome trace. The smoke ctest target runs this binary
// and validates both artifacts, so a broken exporter fails CI instead of
// silently producing garbage artifacts for every real experiment.
//
// It also smoke-tests the sweep engine and the sharded drain, each run once
// at its default width. Their simulated results land in BENCH_smoke.json,
// and the golden_smoke_* ctest variants (tests/CMakeLists.txt) rerun the
// binary under IMA_JOBS, IMA_SHARDS, IMA_SHARD_EPOCH, IMA_CLOCK and
// IMA_CKPT_LOAD against tests/golden/BENCH_smoke_smoke.json: that matrix is
// the cross-width, cross-clock and cross-process determinism check.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "bench/bench_util.hh"
#include "bench/mc_harness.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "harness/pool.hh"
#include "obs/tail.hh"
#include "mem/memsys.hh"
#include "obs/stat_registry.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "reliability/engine.hh"
#include "service/facade.hh"
#include "sim/system.hh"
#include "workloads/tensor.hh"

using namespace ima;

namespace {

// The loaded phase's reference work: simulator-free and fixed — a
// xorshift walk of dependent read-modify-writes over a 256 KB table, which
// stays cache-resident like the controller's state. Branch-free, so -O2
// and -O3 compile it alike. Returns a checksum so it cannot be optimized
// away; every call does the same work.
std::uint64_t reference_loop() {
  std::vector<std::uint32_t> table(1u << 16);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& t = table[(x ^ sum) & 0xFFFF];
    t = t * 0x9E3779B1u + static_cast<std::uint32_t>(x >> 32);
    sum += t;
  }
  return sum;
}

}  // namespace

int main() {
  bench::print_header(
      "smoke: telemetry pipeline",
      "Claim: a short run produces consistent StatRegistry numbers, a valid "
      "machine-readable report and a loadable Chrome trace.");

  // The time-series period is read before any phase runs, so a bad value
  // fails at start-up. A period of 0 would disable sampling, so it is
  // rejected like a typo.
  const Cycle ts_period = env_uint("IMA_TIMESERIES").value_or(16'384);
  if (ts_period == 0) env_reject("IMA_TIMESERIES", "0", "expected a positive number of cycles");

  // Loaded-controller throughput: MLP injectors keep the queues saturated,
  // so this measures the issue-loop fast path (memoized timing checks +
  // busy skip-ahead), not idle-gap skipping. The number lands in
  // BENCH_smoke.json as host_cycles_per_sec_loaded. A shared CPU only ever
  // slows the code, so repetition times are bimodal: the phase runs seven
  // times, spread over this whole binary and rotated over the allowed CPUs
  // (a neighbour contends for one CPU at a time), so one busy spell or
  // busy CPU cannot slow them all, and the rate comes from the fastest
  // repetition (the fast mode: the code's own speed).
  //
  // A host that stays slow for the whole run slows every repetition, so
  // each one is followed, on the same pinned CPU, by a fixed reference
  // loop that touches no simulator code. bench_smoke_check.cmake floors
  // the ratio of the fastest loaded rate to the fastest reference rate
  // (host_cycles_per_sec_loaded_ref_ratio: simulated cycles per reference
  // loop), which a uniformly slow host leaves in place and a slower
  // simulator lowers. Both sides of the ratio are timed in process CPU
  // time: a neighbour time-sharing the CPU can otherwise hand the short
  // reference loop a clean slice that the loaded phase never gets.
  const Cycle loaded_cycles = 300'000;
  int loaded_reps = 0;
  double loaded_secs = 0;      // fastest repetition, wall
  double loaded_cpu_secs = 0;  // fastest repetition, CPU
  double ref_cpu_secs = 0;     // fastest reference loop, CPU
  std::uint64_t ref_checksum = 0;
  bench::McResult loaded;
  const auto loaded_rep = [&] {
#ifdef __linux__
    cpu_set_t allowed;
    const bool pin = sched_getaffinity(0, sizeof allowed, &allowed) == 0;
    if (pin) {
      std::vector<int> cpus;
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(loaded_reps) % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
#endif
    auto dram_cfg = dram::DramConfig::ddr4_2400();
    mem::ControllerConfig ctrl;
    const std::clock_t cpu_start = std::clock();
    const auto start = std::chrono::steady_clock::now();
    auto res = bench::run_mc(dram_cfg, ctrl, mem::make_scheduler(mem::SchedKind::FrFcfs, 4, 17),
                             bench::hetero_mix(31), loaded_cycles);
    const auto end = std::chrono::steady_clock::now();
    const std::clock_t cpu_mid = std::clock();
    const std::uint64_t checksum = reference_loop();
    const std::clock_t cpu_end = std::clock();
    const double secs = std::chrono::duration<double>(end - start).count();
    const double cpu_secs = static_cast<double>(cpu_mid - cpu_start) / CLOCKS_PER_SEC;
    const double ref_secs = static_cast<double>(cpu_end - cpu_mid) / CLOCKS_PER_SEC;
#ifdef __linux__
    if (pin) sched_setaffinity(0, sizeof allowed, &allowed);
#endif
    if (loaded_reps > 0 && (res.served_per_kcycle != loaded.served_per_kcycle ||
                            checksum != ref_checksum)) {
      std::cerr << "loaded phase: repetition " << loaded_reps << " diverges from the first\n";
      std::exit(1);
    }
    const bool first = loaded_reps++ == 0;
    if (first || secs < loaded_secs) loaded_secs = secs;
    if (first || cpu_secs < loaded_cpu_secs) loaded_cpu_secs = cpu_secs;
    if (first || ref_secs < ref_cpu_secs) ref_cpu_secs = ref_secs;
    ref_checksum = checksum;
    loaded = std::move(res);
  };
  loaded_rep();

  sim::SystemConfig cfg;
  cfg.num_cores = 2;
  cfg.ctrl.num_cores = 2;
  cfg.core.instr_limit = 20'000;
  cfg.prefetch = sim::PrefetchKind::Stride;
  cfg.ctrl.record_spans = true;  // per-stage request lifecycle telemetry

  std::vector<std::unique_ptr<workloads::AccessStream>> streams;
  workloads::StreamParams p;
  p.footprint = 8ull << 20;
  streams.push_back(workloads::make_streaming(p));
  p.seed = 99;
  streams.push_back(workloads::make_random(p));
  sim::System sys(cfg, std::move(streams));

  obs::StatRegistry reg;
  sys.register_stats(reg);
  auto& sink = sys.enable_trace(1 << 14);

  // Windowed time-series sampler: registry paths plus a live queue-depth
  // gauge, sampled every IMA_TIMESERIES cycles (clock-mode invariant).
  obs::TimeSeries ts("smoke", ts_period);
  ts.track_path(reg, "sys.mem.ctrl0.reads_done");
  ts.track_path(reg, "sys.core0.instructions");
  ts.track_path(reg, "sys.core1.instructions");
  ts.add_track("sys.mem.ctrl0.read_queue_depth", obs::StatKind::Gauge, [&sys] {
    return static_cast<double>(sys.memory().controller(0).read_queue_depth());
  });
  sys.set_timeseries(&ts);

  const auto before = reg.snapshot();
  const auto host_start = std::chrono::steady_clock::now();
  const Cycle end = sys.run(10'000'000);
  const double host_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start).count();
  const auto after = reg.snapshot();
  const auto delta = obs::StatRegistry::diff(before, after);

  const double instrs = delta.at("sys.core0.instructions").value_or(0) +
                        delta.at("sys.core1.instructions").value_or(0);
  const double reads = delta.at("sys.mem.ctrl0.reads_done").value_or(0);
  Table t({"metric", "value"});
  t.add_row({"cycles", Table::fmt_si(static_cast<double>(end), 0)});
  t.add_row({"instructions", Table::fmt_si(instrs, 0)});
  t.add_row({"reads done", Table::fmt_si(reads, 0)});
  t.add_row({"trace events", Table::fmt_si(static_cast<double>(sink.recorded()), 0)});
  const double host_rate = host_secs > 0 ? static_cast<double>(end) / host_secs : 0;
  t.add_row({"host cycles/sec", Table::fmt_si(host_rate, 1)});
  bench::print_table(t, "run summary");

  bench::record_metric("cycles", static_cast<double>(end));
  bench::record_metric("trace_events", static_cast<double>(sink.recorded()));
  bench::record_metric("trace_dropped", static_cast<double>(sink.dropped()));
  bench::record_metric("host_cycles_per_sec", host_rate);
  bench::record_snapshot(after);
  bench::record_timeseries(ts.data());

  // Request lifecycle spans: tail percentiles plus the exact-decomposition
  // invariant — per-stage latency sums must equal the end-to-end sum (the
  // attribution loses nothing and double-counts nothing).
  {
    const auto& memsys = sys.memory();
    double span_sum = 0, e2e_sum = 0;
    for (std::uint32_t ch = 0; ch < memsys.num_channels(); ++ch) {
      const auto& c = memsys.controller(ch);
      const auto* sp = c.spans();
      span_sum += sp->queue.sum() + sp->stall.sum() + sp->refresh.sum() + sp->xfer.sum();
      e2e_sum += c.stats().read_latency.sum();
    }
    const auto& lat0 = memsys.controller(0).stats().read_latency;
    bench::record_metric("read_latency_p50", lat0.percentile(0.50));
    bench::record_metric("read_latency_p95", lat0.percentile(0.95));
    bench::record_metric("read_latency_p99", lat0.percentile(0.99));
    bench::record_metric("read_latency_p999", lat0.percentile(0.999));
    bench::record_metric("span_stage_sum_error", span_sum - e2e_sum);
  }

  const std::string dir = obs::Report::default_out_dir();
  const std::string trace_path = dir + "/TRACE_smoke.json";
  if (!sink.write_chrome_trace_file(trace_path)) {
    std::cerr << "failed to write " << trace_path << "\n";
    return 1;
  }

  // Self-check: the run must actually have exercised the pipeline. Trace
  // events only exist when the build compiles the trace points in.
#ifndef IMA_TRACE_DISABLED
  const bool traced = sink.recorded() > 0;
#else
  const bool traced = true;
#endif
  if (end == 0 || reads == 0 || !traced) {
    std::cerr << "smoke run produced no activity\n";
    return 1;
  }

  loaded_rep();

  // Sweep-engine smoke: the 8-scheduler matrix at the default width, each
  // scheduler's per-core throughput recorded for the golden to pin.
  {
    const std::vector<mem::SchedKind> kinds = {
        mem::SchedKind::Fcfs,  mem::SchedKind::FrFcfs, mem::SchedKind::FrFcfsCap,
        mem::SchedKind::ParBs, mem::SchedKind::Atlas,  mem::SchedKind::Tcm,
        mem::SchedKind::Bliss, mem::SchedKind::Rl};
    auto dram_cfg = dram::DramConfig::ddr4_2400();
    mem::ControllerConfig ctrl;
    const auto job = [&](const mem::SchedKind& kind) {
      return bench::run_mc(dram_cfg, ctrl, mem::make_scheduler(kind, 4, 13),
                           bench::hetero_mix(21), 30'000);
    };
    const auto par = harness::run_sweep(kinds, job);
    if (!par.ok()) {
      std::cerr << "sweep smoke: a job failed\n";
      return 1;
    }
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const auto& served = par.at(i).served_per_kcycle;
      for (std::size_t core = 0; core < served.size(); ++core)
        bench::record_metric("sweep_served_per_kcycle." + std::string(mem::to_string(kinds[i])) +
                                 ".core" + std::to_string(core),
                             served[core]);
    }
    Table sw({"metric", "value"});
    sw.add_row({"sweep jobs", Table::fmt_int(kinds.size())});
    sw.add_row({"workers", Table::fmt_int(par.workers)});
    sw.add_row({"wall (s)", Table::fmt(par.wall_seconds, 3)});
    // golden_smoke_jobs1/jobs8 check that the results are width-invariant.
    bench::print_table(sw, "sweep engine (parallel jobs)");

    bench::record_metric("sweep_jobs", static_cast<double>(kinds.size()));
    bench::record_metric("sweep_workers", static_cast<double>(par.workers));
    bench::record_metric("sweep_wall_seconds", par.wall_seconds);
  }

  // Loaded-controller throughput; its host rate is reported last.
  loaded_rep();
  {
    Table lt({"metric", "value"});
    lt.add_row({"loaded cycles", Table::fmt_si(static_cast<double>(loaded_cycles), 0)});
    lt.add_row({"served/kcycle", Table::fmt(loaded.total_served_per_kcycle, 1)});
    bench::print_table(lt, "loaded-controller throughput (saturated queues)");
    bench::record_metric("loaded_served_per_kcycle", loaded.total_served_per_kcycle);
  }

  // Sharded intra-sim execution smoke: one 8-channel machine drained by the
  // epoch-barrier engine at the wide width (IMA_SHARDS, default 8). Its end
  // cycle, completion checksum and stats land in the report for the golden
  // to pin at every shard width and epoch.
  {
    unsigned wide = harness::default_shards();
    if (wide == 0) wide = 8;
    auto dram_cfg = dram::DramConfig::ddr4_2400();
    dram_cfg.geometry.channels = 8;
    mem::MemorySystem sys(dram_cfg, mem::ControllerConfig{});
    sys.set_shards(wide);
    std::uint64_t checksum = 0;
    const auto src = mem::hashed_source(sys, bench::smoke_scaled(20'000, 2'000),
                                        /*seed=*/0x5AAD, /*cores=*/1, &checksum);
    const auto start = std::chrono::steady_clock::now();
    const Cycle cycles = sys.drain_sourced(src, 0);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    obs::StatRegistry sreg;
    sys.register_stats(sreg, "shard");
    bench::record_snapshot(sreg.snapshot());

    Table st({"metric", "value"});
    st.add_row({"channels", "8"});
    st.add_row({"shards", Table::fmt_int(wide)});
    st.add_row({"host workers used", Table::fmt_int(sys.shard_workers_used())});
    st.add_row({"cycles", Table::fmt_si(static_cast<double>(cycles), 0)});
    st.add_row({"sharded wall (s)", Table::fmt(wall, 3)});
    // golden_smoke_shards1/shards8 check that the results are width-invariant.
    bench::print_table(st, "sharded drain (wide plan)");

    bench::record_metric("shard_channels", 8);
    bench::record_metric("shard_cycles", static_cast<double>(cycles));
    bench::record_metric("shard_checksum", static_cast<double>(checksum % 1000003));
    bench::record_metric("shard_epoch", static_cast<double>(sim::default_shard_epoch()));
    bench::record_metric("shard_workers", static_cast<double>(sys.shard_workers_used()));
    bench::record_metric("shard_wall_seconds", wall);
  }

  loaded_rep();

  // Reliability pipeline smoke: deterministic direct injection through the
  // full corrupt -> demand-read -> decode path. A SECDED system must correct
  // four single-bit lines and flag one double-bit word as DUE; an
  // unprotected twin must serve the same corruption as silent data
  // corruption. Exact counts — any drift in the injector, the codecs or the
  // controller read hook fails CI here.
  {
    auto rel_cfg = dram::DramConfig::ddr4_2400();
    rel_cfg.geometry.channels = 1;
    rel_cfg.geometry.ranks = 1;
    rel_cfg.geometry.banks = 2;
    rel_cfg.geometry.subarrays = 2;
    rel_cfg.geometry.rows_per_subarray = 64;
    rel_cfg.geometry.columns = 16;
    const auto inject_and_read = [&rel_cfg](reliability::EccKind ecc) {
      mem::ControllerConfig cc;
      cc.reliability.enabled = true;
      cc.reliability.ecc = ecc;
      cc.reliability.seed = 7;
      mem::MemorySystem sys(rel_cfg, cc);
      auto* eng = sys.controller(0).reliability_engine();
      Cycle now = 0;
      for (const std::uint32_t row : {10u, 11u, 12u, 13u, 20u}) {
        const dram::Coord c{0, 0, 0, row, 0};
        sys.poke_u64(sys.mapper().encode(c), 0xABCD0000ull + row);
        eng->ensure_encoded(c);
        if (row == 20)
          eng->injector().corrupt_word_bits(c, 0, 2);  // two bits, one word
        else
          eng->injector().corrupt_line_bits(c, 1);
        mem::Request r;
        r.addr = sys.mapper().encode(c);
        r.arrive = now;
        bench::enqueue_or_die(sys, r);
        now = sys.drain(now);
      }
      return eng->stats();
    };
    const auto prot = inject_and_read(reliability::EccKind::Secded);
    const auto bare = inject_and_read(reliability::EccKind::None);
    if (prot.ce_words != 4 || prot.due_events != 1 || prot.sdc_reads != 0 ||
        bare.sdc_reads == 0 || bare.ce_words != 0) {
      std::cerr << "reliability smoke: wrong end-to-end ECC outcomes (secded ce="
                << prot.ce_words << " due=" << prot.due_events
                << " sdc=" << prot.sdc_reads << "; bare sdc=" << bare.sdc_reads
                << ")\n";
      return 1;
    }
    Table rt({"metric", "value"});
    rt.add_row({"secded CE words", Table::fmt_int(prot.ce_words)});
    rt.add_row({"secded DUE events", Table::fmt_int(prot.due_events)});
    rt.add_row({"secded SDC reads", Table::fmt_int(prot.sdc_reads)});
    rt.add_row({"unprotected SDC reads", Table::fmt_int(bare.sdc_reads)});
    bench::print_table(rt, "reliability pipeline (direct injection, exact counts)");
    bench::record_metric("reliability_ce", static_cast<double>(prot.ce_words));
    bench::record_metric("reliability_due", static_cast<double>(prot.due_events));
    bench::record_metric("reliability_sdc_unprotected",
                         static_cast<double>(bare.sdc_reads));
  }

  loaded_rep();

  // Serving smoke: open-loop Poisson tensor traffic through the service
  // facade (the C25 path in miniature). The loss contract is exact —
  // every arrival the sources produced must complete and be delivered —
  // and the lifecycle span decomposition must stay exact under facade
  // traffic, so CI pins both before the full serving bench ever runs.
  {
    auto srv_cfg = dram::DramConfig::ddr4_2400();
    srv_cfg.geometry.channels = 2;
    mem::ControllerConfig cc;
    cc.record_spans = true;
    mem::MemorySystem sys(srv_cfg, cc);
    sys.set_shards(std::max(1u, harness::default_shards()));
    service::MemoryService svc(sys);

    workloads::TensorConfig tc;
    tc.m = tc.n = 16;
    tc.k = 32;
    tc.tile_m = tc.tile_n = 8;
    tc.tile_k = 16;
    const workloads::TensorTraffic traffic(tc);
    const std::uint32_t nch = sys.num_channels();
    struct Inst {
      Rng rng;
      Cycle t = 0;
      std::uint64_t cursor = 0;
      std::uint64_t done = 0;
    };
    const std::uint64_t kPasses = 3;
    std::vector<Inst> inst(nch);  // one instance per channel: state stays
                                  // channel-local for the sharded feed
    for (std::uint32_t ch = 0; ch < nch; ++ch) {
      inst[ch].rng.reseed(harness::job_seed(0x5e11, ch));
      inst[ch].t = 1 + inst[ch].rng.next_below(2000);
    }
    const auto& g = srv_cfg.geometry;
    mem::MemorySystem::ChannelSource src;
    src.next = [&](std::uint32_t ch, Cycle, mem::Request& r) {
      Inst& in = inst[ch];
      if (in.done == kPasses) return false;
      const auto acc = traffic.at(in.cursor);
      std::uint64_t l = acc.offset / kLineBytes;
      dram::Coord c{};
      c.channel = ch;
      c.column = static_cast<std::uint32_t>(l % g.columns);
      c.row = static_cast<std::uint32_t>(l / g.columns);
      r = mem::Request{};
      r.addr = sys.mapper().encode(c);
      r.type = acc.type;
      r.arrive = in.t;
      r.tag = in.t;
      if (++in.cursor == traffic.accesses_per_pass()) {
        in.cursor = 0;
        in.t += 1 + in.rng.next_below(4000);  // next inference arrival
        ++in.done;
      }
      return true;
    };
    obs::TailRecorder lat;
    src.on_complete = [&](std::uint32_t, const mem::Request& done) {
      lat.add(done.complete - done.tag);
    };
    svc.pump(src, 0);
    double span_sum = 0, e2e_sum = 0;
    for (std::uint32_t ch = 0; ch < nch; ++ch) {
      const auto* sp = sys.controller(ch).spans();
      span_sum += sp->queue.sum() + sp->stall.sum() + sp->refresh.sum() + sp->xfer.sum();
      e2e_sum += sys.controller(ch).stats().read_latency.sum();
    }
    const std::uint64_t expect = nch * kPasses * traffic.accesses_per_pass();
    if (svc.pushed() != expect || svc.completed() != expect ||
        svc.in_flight() != 0 || sys.last_drain_clipped() || span_sum != e2e_sum) {
      std::cerr << "serving smoke: lost requests or broken spans (pushed="
                << svc.pushed() << " completed=" << svc.completed()
                << " expect=" << expect << " span_err=" << (span_sum - e2e_sum)
                << ")\n";
      return 1;
    }
    Table st({"metric", "value"});
    st.add_row({"arrivals", Table::fmt_int(svc.pushed())});
    st.add_row({"completions", Table::fmt_int(svc.completed())});
    st.add_row({"p99 latency (cycles)", Table::fmt(lat.percentile(0.99), 0)});
    bench::print_table(st, "serving facade (open-loop tensor traffic, loss-free)");
    bench::record_metric("serving_arrivals", static_cast<double>(svc.pushed()));
    bench::record_metric("serving_completions", static_cast<double>(svc.completed()));
    bench::record_metric("serving_p99", lat.percentile(0.99));
    bench::record_metric("serving_span_stage_sum_error", span_sum - e2e_sum);
  }

  loaded_rep();

  // Checkpoint/restore smoke: warm a small full-hierarchy system to a
  // quiescent point, seal the image to CKPT_smoke.ckpt, restore it into a
  // freshly built twin and continue both — the continuations must be
  // byte-identical (end cycle + full StatRegistry render), and restoring
  // must be cheaper than re-running the warmup (the amortization every
  // warm-started sweep depends on). IMA_CKPT_LOAD=<path> makes the twin
  // warm-start from a prior run's image instead: the image format is
  // deterministic, so the report must not change — golden_smoke_ckptload
  // pins exactly that cross-process resume.
  {
    sim::SystemConfig ck;
    ck.num_cores = 2;
    ck.ctrl.num_cores = 2;
    ck.core.instr_limit = 60'000;
    ck.dram.geometry.channels = 2;
    ck.prefetch = sim::PrefetchKind::Stride;
    const auto build = [&ck] {
      std::vector<std::unique_ptr<workloads::AccessStream>> sv;
      for (std::uint32_t i = 0; i < ck.num_cores; ++i) {
        workloads::StreamParams sp;
        sp.footprint = 1 << 20;
        sp.seed = 7 + i;
        sv.push_back(i % 2 == 0 ? workloads::make_zipf(sp, 0.8)
                                : workloads::make_streaming(sp));
      }
      return std::make_unique<sim::System>(ck, std::move(sv));
    };
    const auto render = [](const sim::System& s) {
      obs::StatRegistry r;
      s.register_stats(r);
      return r.snapshot().render();
    };
    const std::string ckpt_path = dir + "/CKPT_smoke.ckpt";

    // Reference leg: warm up, drain to quiescence, seal the image, finish.
    auto ref = build();
    const auto warm_start = std::chrono::steady_clock::now();
    ref->run(200'000);
    ref->memory().drain(ref->now());
    const double warm_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - warm_start).count();
    ref->save(ckpt_path);
    const Cycle ref_end = ref->run(2'000'000);

    // Restored leg: a fresh twin continues from the image (by default the
    // one just written; $IMA_CKPT_LOAD points at another run's).
    const char* load_env = std::getenv("IMA_CKPT_LOAD");
    const std::string load_path = load_env && *load_env ? load_env : ckpt_path;
    auto twin = build();
    const auto restore_start = std::chrono::steady_clock::now();
    twin->restore(load_path);
    const double restore_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - restore_start)
            .count();
    const Cycle twin_end = twin->run(2'000'000);

    const bool equal = ref_end == twin_end && render(*ref) == render(*twin);
    if (!equal) {
      std::cerr << "checkpoint smoke: restored continuation diverges (end "
                << ref_end << " vs " << twin_end << ", image " << load_path << ")\n";
      return 1;
    }
    std::ifstream img(ckpt_path, std::ios::binary | std::ios::ate);
    const double ckpt_bytes = img ? static_cast<double>(img.tellg()) : 0;
    const double warm_speedup = restore_secs > 0 ? warm_secs / restore_secs : 0;

    Table ct({"metric", "value"});
    ct.add_row({"image (bytes)", Table::fmt_si(ckpt_bytes, 1)});
    ct.add_row({"end cycle", Table::fmt_si(static_cast<double>(ref_end), 0)});
    ct.add_row({"byte-identical", equal ? "yes" : "no"});
    ct.add_row({"warmup wall (s)", Table::fmt(warm_secs, 4)});
    ct.add_row({"restore wall (s)", Table::fmt(restore_secs, 4)});
    ct.add_row({"warm-start speedup", Table::fmt_ratio(warm_speedup)});
    bench::print_table(ct, "checkpoint/restore (restored twin vs uninterrupted)");

    bench::record_metric("ckpt_bytes", ckpt_bytes);
    bench::record_metric("ckpt_end_cycle", static_cast<double>(ref_end));
    bench::record_metric("ckpt_equal", equal ? 1 : 0);
    bench::record_metric("ckpt_warmup_wall_seconds", warm_secs);
    bench::record_metric("ckpt_restore_wall_seconds", restore_secs);
    bench::record_metric("ckpt_warm_start_speedup", warm_speedup);
  }

  loaded_rep();
  const double loaded_cps = loaded_secs > 0 ? static_cast<double>(loaded_cycles) / loaded_secs : 0;
  bench::record_metric("host_cycles_per_sec_loaded", loaded_cps);
  bench::record_metric(
      "host_cycles_per_sec_loaded_ref_ratio",
      loaded_cpu_secs > 0 ? static_cast<double>(loaded_cycles) / loaded_cpu_secs * ref_cpu_secs : 0);

  bench::print_shape(
      "non-zero instructions, DRAM reads and trace events; reliability phase "
      "with exact CE/DUE/SDC counts; checkpoint phase with a byte-identical "
      "restored continuation; BENCH_smoke.json, TRACE_smoke.json and "
      "CKPT_smoke.ckpt written to $IMA_BENCH_OUT (else the current directory)");
  return 0;
}
