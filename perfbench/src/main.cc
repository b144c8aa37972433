// Benchmark entry point: repeats one workload for a fixed host time and prints
// one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--small] [--workdir <dir>]
//
// Each repetition builds its inputs and system from the seed (set-up), then
// runs the workload's fixed simulated work (timed phase). Every repetition
// must reproduce the first one's simulated results exactly. --trace 1
// alternates untraced and traced repetitions and reports the per-layer
// metrics of the median traced one, plus the tracing overhead (traced minus
// untraced wall time).
//
// On a shared host each CPU alternates, for seconds to minutes at a time,
// between running alone and sharing its core with another tenant, which
// slows this code by up to half; repetition times are bimodal. The
// contended mode is the steady one, so wall_s is the upper quartile of the
// repetitions' timed phases, which sits in it whenever a CPU spends a
// quarter of the run contended. Set-up time is the median repetition's.
// Repetition i is pinned to the i-th allowed CPU in turn (a window of as
// many CPUs as the workload runs threads), so the quantiles sample every
// CPU rather than the one a thread left alone would stay on.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "obs/json.hh"

using namespace perfbench;

namespace {

struct Workload {
  WorkloadFn run;
  unsigned threads;  // host threads one repetition runs on
};

const std::map<std::string, Workload>& workloads_by_name() {
  static const std::map<std::string, Workload> m = {
      {"sched_rl", {run_sched_rl, 1}},
      {"pnm_graph", {run_pnm_graph, 1}},
      {"system_mix", {run_system_mix, 1}},
      {"serving_open", {run_serving_open, 2}},  // coordinator + one shard worker
  };
  return m;
}

/// CPUs this process may run on (empty when the mask cannot be read).
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Pins the calling thread, and the threads it starts afterwards, to
/// `width` consecutive allowed CPUs beginning at the `slot`-th.
void pin(const std::vector<int>& cpus, std::size_t slot, unsigned width) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned k = 0; k < width; ++k) CPU_SET(cpus[(slot + k) % cpus.size()], &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    std::cerr << "perfbench: could not pin to CPU " << cpus[slot % cpus.size()] << '\n';
}

struct Options {
  std::string workload;
  Params params;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--small] [--workdir <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--small") {
      o.params.small = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.params.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--workdir") o.params.workdir = v;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!workloads_by_name().count(o.workload)) usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

/// Nearest-rank quantile: the smallest value with at least a share `q` of
/// the values at or below it.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

bool same_sim(const Rep& a, const Rep& b) {
  return a.sim_cycles == b.sim_cycles && a.sim_energy_uj == b.sim_energy_uj &&
         a.sim_read_p99_cycles == b.sim_read_p99_cycles && a.ops == b.ops;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: on Linux it keeps the peak of the process that forked us
/// across exec, so under a Python launcher it reports Python's footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": ";
    ima::obs::write_json_number(std::cout, m.value);
    std::cout << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload& workload = workloads_by_name().at(opt.workload);
  const std::vector<int> cpus = allowed_cpus();
  // Repetitions stop at the first one ending past the time budget; a floor
  // gives every CPU at least one.
  const std::size_t min_reps = std::max<std::size_t>(3, cpus.size());
  try {
    std::vector<Rep> plain, traced;
    double rss_mb = 0;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < opt.seconds || plain.size() < min_reps ||
           (opt.trace && traced.size() < min_reps)) {
      pin(cpus, plain.size(), workload.threads);
      plain.push_back(workload.run(opt.params, false));
      // Peak RSS is the first repetition's: later ones repeat the same work,
      // and heap fragmentation across repetitions would add run-length noise.
      if (plain.size() == 1) rss_mb = peak_rss_mb();
      std::cerr << "rep " << plain.size() << ": setup_s " << plain.back().setup_s << " wall_s "
                << plain.back().wall_s << '\n';
      if (opt.trace) {
        traced.push_back(workload.run(opt.params, true));
        std::cerr << "traced rep " << traced.size() << ": wall_s " << traced.back().wall_s << '\n';
      }
    }

    std::uint64_t attempted = 0, failed = 0;
    for (const auto* reps : {&plain, &traced}) {
      for (const Rep& r : *reps) {
        attempted += r.ops;
        failed += r.failures.size();
        for (const auto& f : r.failures) std::cerr << "check failed: " << f << '\n';
        if (!same_sim(r, plain.front())) {
          ++failed;
          std::cerr << "check failed: simulated results differ between repetitions\n";
        }
      }
    }

    const auto times = [](const std::vector<Rep>& reps, double Rep::*field) {
      std::vector<double> v;
      for (const Rep& r : reps) v.push_back(r.*field);
      return v;
    };
    const double wall_s = quantile(times(plain, &Rep::wall_s), 0.75);
    Metrics metrics;
    if (!opt.trace) {
      const Rep& sim = plain.front();
      metrics = {
          {"wall_s", wall_s, "s"},
          {"sim_cycles_per_s", static_cast<double>(sim.sim_cycles) / wall_s, "cycles/s"},
          {"setup_s", quantile(times(plain, &Rep::setup_s), 0.5), "s"},
          {"peak_rss_mb", rss_mb, "MB"},
          {"sim_cycles", static_cast<double>(sim.sim_cycles), "cycles"},
          {"sim_energy_uj", sim.sim_energy_uj, "uJ"},
      };
    } else {
      // Per-layer numbers come from the traced repetition with the median
      // wall time (the lower middle one for an even count).
      std::vector<const Rep*> order;
      for (const Rep& r : traced) order.push_back(&r);
      std::sort(order.begin(), order.end(),
                [](const Rep* a, const Rep* b) { return a->wall_s < b->wall_s; });
      const Rep& mid = *order[(order.size() - 1) / 2];
      Layers layers = mid.layers;
      layers.read_p99 = mid.sim_read_p99_cycles;
      metrics = layer_metrics(layers);
      metrics.push_back({"bench.trace_overhead_s",
                         quantile(times(traced, &Rep::wall_s), 0.75) - wall_s, "s"});
      metrics.push_back({"bench.trace_coverage", layers.covered_s / mid.wall_s, "ratio"});
    }
    print_result(failed == 0, attempted, failed, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << '\n';
    return 1;
  }
}
