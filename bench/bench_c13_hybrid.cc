// C13 (extension) — Hybrid DRAM+PCM main memory: a small DRAM tier managed
// intelligently captures most of all-DRAM performance at a fraction of the
// DRAM capacity (Qureshi et al., ISCA 2009 [92]; Yoon et al., ICCD 2012
// [89]) — the paper's "low-cost data storage" pillar.
//
// Zipf-skewed traffic over a footprint far larger than the DRAM tier;
// compare all-PCM, static pinning, hot-page, and RBL-aware placement
// against the all-DRAM upper bound, sweeping the DRAM fraction. Every
// point owns its HybridMemory and stream, so the 11-point sweep (2 bounds
// + 3 capacities x 3 policies) fans out on the worker pool; each job
// formats its own row into a report fragment, merged in submission order.
#include "bench/bench_util.hh"
#include "hybrid/hybrid.hh"
#include "sim/closed_loop.hh"
#include "workloads/stream.hh"

using namespace ima;

namespace {

struct Out {
  double mean_read_latency = 0;
  double dram_fraction = 0;
  std::uint64_t pcm_writes = 0;
  PicoJoule energy = 0;
};

/// Page-granular Zipf: object heat clusters within pages (heaps allocate
/// hot objects together), which is the locality page-tiering exploits.
class PageZipfStream final : public workloads::AccessStream {
 public:
  PageZipfStream(std::uint64_t footprint, double theta, std::uint64_t seed)
      : pages_(footprint / 4096), zipf_(pages_, theta, seed), rng_(seed ^ 0xBEEF) {}

  workloads::TraceEntry next() override {
    // Scramble the rank order at page granularity so hot pages spread over
    // the address space (but stay page-aligned).
    const std::uint64_t page = (zipf_.next() * 0x9E3779B97F4A7C15ull) % pages_;
    workloads::TraceEntry e;
    e.addr = page * 4096 + line_base(rng_.next_below(4096));
    e.type = rng_.chance(0.25) ? AccessType::Write : AccessType::Read;
    e.pc = 0x6000;
    return e;
  }

  std::string name() const override { return "page-zipf"; }

 private:
  std::uint64_t pages_;
  ZipfGenerator zipf_;
  Rng rng_;
};

Out run(hybrid::HybridConfig cfg, double zipf_theta, Cycle cycles) {
  hybrid::HybridMemory mem(cfg);
  std::vector<sim::Injector> core;
  core.push_back({std::make_unique<PageZipfStream>(128ull << 20, zipf_theta, 11), 8});
  sim::ClosedLoop loop(std::move(core));
  loop.run(mem, 0, cycles);
  Out o;
  o.mean_read_latency = loop.injectors()[0].mean_read_latency();
  o.dram_fraction = mem.stats().dram_fraction();
  o.pcm_writes = mem.stats().pcm_writes;
  o.energy = mem.total_energy(cycles);
  return o;
}

}  // namespace

int main() {
  bench::print_header(
      "C13 (ext): hybrid DRAM+PCM main memory",
      "Claim: a small, intelligently managed DRAM tier in front of PCM captures "
      "most of all-DRAM performance at a fraction of the cost [22,89,92].");

  const Cycle kCycles = bench::smoke_scaled(1'500'000, 150'000);
  hybrid::HybridConfig base;
  base.epoch = 25'000;
  base.hot_threshold = 2;
  base.max_migrations_per_epoch = 256;
  const double theta = 0.95;

  // Bounds: all-DRAM (DRAM tier covers the footprint) and all-PCM (0 slots).
  auto all_dram = base;
  all_dram.policy = hybrid::Placement::Static;
  all_dram.dram_bytes = 256ull << 20;
  auto all_pcm = base;
  all_pcm.policy = hybrid::Placement::HotPage;
  all_pcm.dram_bytes = 0;

  struct Point {
    hybrid::HybridConfig cfg;
    std::string label;     // first table column
    std::string capacity;  // second table column
  };
  std::vector<Point> points;
  points.push_back({all_dram, "all-DRAM (bound)", "footprint"});
  points.push_back({all_pcm, "all-PCM (bound)", "0"});
  for (const std::uint64_t mb : {8ull, 16ull, 32ull}) {
    for (auto policy : {hybrid::Placement::Static, hybrid::Placement::HotPage,
                        hybrid::Placement::RblAware}) {
      auto cfg = base;
      cfg.policy = policy;
      cfg.dram_bytes = mb << 20;
      points.push_back({cfg, to_string(policy),
                        std::to_string(mb) + "MB (" +
                            Table::fmt(100.0 * static_cast<double>(mb << 20) /
                                       (128ull << 20), 1) +
                            "% of footprint)"});
    }
  }

  harness::SweepOptions opt;
  opt.label = [&points](std::size_t i) { return points[i].label + " " + points[i].capacity; };
  const auto res = bench::sweep(
      "c13",
      points,
      [&](const Point& p, harness::JobContext& ctx) {
        const auto o = run(p.cfg, theta, kCycles);
        // The bounds rows format "PCM writes" differently (all-DRAM writes
        // none by construction, printed as a plain "0").
        ctx.fragment.row({p.label, p.capacity, Table::fmt(o.mean_read_latency, 1),
                          Table::fmt_pct(o.dram_fraction),
                          ctx.index == 0 ? "0" : Table::fmt_int(o.pcm_writes),
                          Table::fmt(o.energy / 1e6, 1)});
        return o;
      },
      opt);
  if (!res.ok()) return 1;

  Table t({"config", "DRAM capacity", "mean read lat (cyc)", "DRAM-served",
           "PCM writes", "energy (uJ)"});
  bench::add_sweep_rows(t, res);
  bench::print_table(t);

  bench::print_shape(
      "all-PCM worst latency; static pinning barely helps (the hot set is spread); "
      "adaptive placement (hot-page / RBL-aware) serves ~half the accesses from a "
      "DRAM tier only 6% of the footprint, halving the latency gap to all-DRAM — "
      "the hybrid-memory claim that a small DRAM cache suffices; the cost is "
      "migration traffic (extra PCM writes and DRAM energy), the trade-off the "
      "hybrid-management papers optimize");
  return 0;
}
