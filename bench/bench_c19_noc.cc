// C19 (extension) — Bufferless on-chip networks (BLESS, Moscibroda &
// Mutlu, ISCA 2009 [200]; CHIPPER [205]; MinBD [207]): router buffers are
// most of a NoC's energy/area, yet at realistic loads deflections are rare
// — removing the buffers saves substantial energy with minimal latency
// cost, until the network approaches saturation.
//
// Latency/energy vs injection rate for buffered XY vs bufferless
// deflection routing on an 8x8 mesh, uniform-random traffic. Each of the
// 18 (rate, config) points simulates its own Mesh, so they fan out as one
// sweep; jobs return a small stats aggregate (a Mesh is too heavy to keep
// 18 of alive) and the rows — whose savings column pairs buffered with
// bufferless results — are assembled at the barrier.
#include <chrono>
#include <sstream>

#include "bench/bench_util.hh"
#include "harness/pool.hh"
#include "mem/memsys.hh"
#include "noc/mesh.hh"

using namespace ima;

namespace {

struct Out {
  double lat_mean = 0;
  double lat_stddev = 0;
  std::uint64_t deflections = 0;
  std::uint64_t delivered = 0;
  double energy = 0;

  double energy_per_packet() const {
    return energy / static_cast<double>(delivered);
  }
  /// Approximate p99 as mean + 2.33 sigma (latency is right-skewed; this
  /// is a comparative, not absolute, number).
  double p99() const { return lat_mean + 2.33 * lat_stddev; }
};

}  // namespace

int main() {
  bench::print_header(
      "C19 (ext): bufferless deflection routing",
      "Claim: removing router buffers saves most router energy at negligible "
      "latency cost for low-to-medium loads; deflections only matter near "
      "saturation [200,205,207].");

  noc::NocConfig buffered;
  buffered.width = buffered.height = 8;
  noc::NocConfig bufferless = buffered;
  bufferless.bufferless = true;

  const Cycle kCycles = bench::smoke_scaled(20'000, 4'000);
  constexpr double kSweepRates[] = {0.01, 0.05, 0.10, 0.20, 0.30, 0.40};
  constexpr double kP99Rates[] = {0.10, 0.30, 0.45};

  struct Point {
    double rate;
    bool bufferless;
    std::uint64_t seed;
  };
  // Submission order: the 6x2 latency/energy grid (seed 9), then the 3x2
  // p99 grid (seed 13), buffered before bufferless at each rate.
  std::vector<Point> points;
  for (const double rate : kSweepRates)
    for (const bool dfl : {false, true}) points.push_back({rate, dfl, 9});
  for (const double rate : kP99Rates)
    for (const bool dfl : {false, true}) points.push_back({rate, dfl, 13});

  harness::SweepOptions opt;
  opt.label = [&points](std::size_t i) {
    return std::string(points[i].bufferless ? "bufferless" : "buffered") + " @ " +
           Table::fmt(points[i].rate, 2) + (points[i].seed == 13 ? " (p99)" : "");
  };
  const auto res = bench::sweep(
      "c19",
      points,
      [&](const Point& p) {
        const auto mesh = noc::run_uniform_traffic(
            p.bufferless ? bufferless : buffered, p.rate, kCycles, p.seed);
        Out o;
        o.lat_mean = mesh.stats().latency.mean();
        o.lat_stddev = mesh.stats().latency.stddev();
        o.deflections = mesh.stats().deflections;
        o.delivered = mesh.stats().delivered;
        o.energy = mesh.stats().energy;
        return o;
      },
      opt);
  if (!res.ok()) return 1;

  Table t({"inject rate", "buffered lat", "bufferless lat", "defl/packet",
           "buffered pJ/pkt", "bufferless pJ/pkt", "energy saving"});
  for (std::size_t i = 0; i < std::size(kSweepRates); ++i) {
    const auto& b = res.at(2 * i);
    const auto& d = res.at(2 * i + 1);
    t.add_row({Table::fmt(kSweepRates[i], 2), Table::fmt(b.lat_mean, 1),
               Table::fmt(d.lat_mean, 1),
               Table::fmt(static_cast<double>(d.deflections) /
                              static_cast<double>(d.delivered),
                          2),
               Table::fmt(b.energy_per_packet(), 1), Table::fmt(d.energy_per_packet(), 1),
               Table::fmt_pct(1.0 - d.energy_per_packet() / b.energy_per_packet())});
  }
  bench::print_table(t);

  std::cout << "\np99 latency near saturation\n\n";
  Table p({"inject rate", "buffered p99", "bufferless p99"});
  const std::size_t p99_base = 2 * std::size(kSweepRates);
  for (std::size_t i = 0; i < std::size(kP99Rates); ++i) {
    const auto& b = res.at(p99_base + 2 * i);
    const auto& d = res.at(p99_base + 2 * i + 1);
    p.add_row({Table::fmt(kP99Rates[i], 2), Table::fmt(b.p99(), 1), Table::fmt(d.p99(), 1)});
  }
  bench::print_table(p);

  // Scale phase: the memory-side fabric a mesh of this size would front —
  // one MemorySystem at 64/128/256 channels advanced by the sharded
  // epoch-barrier engine across IMA_SHARDS host threads. The drain is
  // open-loop, so the default epoch applies; a closed-loop mesh<->memory
  // coupling would instead feed NocConfig::min_hop_latency() into
  // sim::conservative_epoch. The 64-channel point also re-runs at 1 shard
  // as the in-binary byte-identity check.
  {
    unsigned shards = harness::default_shards();
    if (shards == 0) shards = 8;
    const std::uint64_t ops = bench::smoke_scaled(2'000, 150);

    const auto run = [ops](std::uint32_t channels, unsigned width) {
      auto dram_cfg = dram::DramConfig::ddr4_2400();
      dram_cfg.geometry.channels = channels;
      dram_cfg.geometry.banks = 4;
      dram_cfg.geometry.subarrays = 4;
      dram_cfg.geometry.rows_per_subarray = 128;
      dram_cfg.geometry.columns = 32;
      mem::MemorySystem sys(dram_cfg, mem::ControllerConfig{});
      sys.set_shards(width);
      std::uint64_t checksum = 0;
      const auto src = mem::hashed_source(sys, ops, /*seed=*/19, /*cores=*/1, &checksum);
      const auto start = std::chrono::steady_clock::now();
      const Cycle cycles = sys.drain_sourced(src, 0);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      struct {
        Cycle cycles;
        std::uint64_t checksum;
        double wall;
        unsigned workers;
      } out{cycles, checksum, wall, sys.shard_workers_used()};
      return out;
    };

    const auto ref64 = run(64, 1);
    // Host wall times and worker counts go to (diff-masked) metrics and a
    // plain stdout line, never into table cells: bench_diff masks rows by
    // volatile label, and a bare number in a compared row would break
    // cross-width equivalence.
    Table ft({"channels", "cycles", "requests"});
    std::ostringstream walls;
    for (const std::uint32_t channels : {64u, 128u, 256u}) {
      const auto r = run(channels, shards);
      if (channels == 64 &&
          (r.cycles != ref64.cycles || r.checksum != ref64.checksum)) {
        std::cerr << "c19 fabric: sharded result diverges from 1-shard reference\n";
        return 1;
      }
      ft.add_row({std::to_string(channels),
                  Table::fmt_si(static_cast<double>(r.cycles), 1),
                  Table::fmt_si(static_cast<double>(channels) * ops, 1)});
      walls << " " << channels << "=" << Table::fmt(r.wall, 3) << "s/w"
            << r.workers;
      const std::string p = "fabric" + std::to_string(channels) + "_";
      bench::record_metric(p + "cycles", static_cast<double>(r.cycles));
      bench::record_metric(p + "checksum", static_cast<double>(r.checksum % 1000003));
      bench::record_metric(p + "wall_seconds", r.wall);
    }
    bench::print_table(ft, "sharded channel fabric (64-256 channels, "
                           "byte-identical to the 1-shard reference)");
    std::cout << "fabric host wall:" << walls.str() << " (shards=" << shards
              << ", serial 64=" << Table::fmt(ref64.wall, 3) << "s)\n";
    bench::record_metric("fabric_shards", shards);
    bench::record_metric("fabric_wall_seconds_serial64", ref64.wall);
  }

  bench::print_shape(
      "low load: bufferless matches buffered latency within a few cycles while "
      "saving ~30-40% of per-packet energy (no buffer writes); deflections/packet "
      "rise with load and the bufferless latency curve knees earlier — BLESS's "
      "published trade-off; the fabric scale table extends the mesh to the "
      "64-256 channel memory side it would front, sharded across host threads");
  return 0;
}
