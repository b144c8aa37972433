#include "harness/sweep.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/env.hh"
#include "common/table.hh"
#include "harness/pool.hh"
#include "obs/watchdog.hh"

namespace ima::harness {

namespace {

unsigned parse_jobs_env() {
  // Cap well above any sane machine so a typo ("IMA_JOBS=100000") cannot
  // exhaust thread handles.
  if (const std::uint64_t v = env_uint("IMA_JOBS").value_or(0); v > 0)
    return static_cast<unsigned>(std::min<std::uint64_t>(v, 1024));
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

unsigned parse_retries_env() {
  // Cap keeps a typo from turning one bad config into a day of backoff.
  return static_cast<unsigned>(
      std::min<std::uint64_t>(env_uint("IMA_SWEEP_RETRIES").value_or(0), 64));
}

double parse_timeout_env() {
  const char* env = std::getenv("IMA_SWEEP_TIMEOUT");
  if (!env || !*env) return 0;
  const char* end = env + std::strlen(env);
  double v = 0;
  const auto [ptr, ec] = std::from_chars(env, end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v < 0)
    env_reject("IMA_SWEEP_TIMEOUT", env, "expected a non-negative number of seconds");
  return v;
}

}  // namespace

unsigned default_jobs() {
  static const unsigned jobs = parse_jobs_env();
  return jobs;
}

unsigned default_sweep_retries() {
  static const unsigned retries = parse_retries_env();
  return retries;
}

double default_sweep_timeout() {
  static const double timeout = parse_timeout_env();
  return timeout;
}

void JobContext::check_deadline() const {
  if (deadline_expired())
    throw SweepTimeout("job " + std::to_string(index) + " exceeded its wall-clock budget" +
                       " (attempt " + std::to_string(attempt) + ")");
}

namespace detail {
void backoff_sleep(unsigned attempt_just_failed, unsigned backoff_ms) {
  if (backoff_ms == 0) return;
  const unsigned shift = std::min(attempt_just_failed, 20u);
  const std::uint64_t ms =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(backoff_ms) << shift, 1000);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}
}  // namespace detail

void add_failure_table(obs::Report& report, const std::vector<Failure>& failures) {
  if (failures.empty()) return;
  Table t({"job", "config", "seed", "attempts", "wall (s)", "error"});
  for (const Failure& f : failures) {
    std::ostringstream seed;
    seed << "0x" << std::hex << f.seed;
    t.add_row({Table::fmt_int(f.index), f.config, seed.str(), Table::fmt_int(f.attempts),
               Table::fmt(f.wall_seconds, 3), f.message});
  }
  report.add_table(t, "dead points (retries exhausted)");
  report.add_metric("dead_points", static_cast<double>(failures.size()));
}

std::uint64_t job_seed(std::uint64_t base, std::size_t index) {
  // splitmix64 over base + index: full-avalanche, so adjacent indices give
  // uncorrelated seeds for xoshiro reseeding.
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void run_indexed(std::size_t num_jobs, unsigned workers,
                 const std::function<void(std::size_t, unsigned)>& body) {
  if (num_jobs == 0) return;
  // Tag the job index on the worker thread so default-named watchdog
  // artifacts constructed inside a job are per-job unique
  // (obs::set_current_job; see Watchdog::resolve_artifact_path).
  const auto tagged = [&body](std::size_t i, unsigned worker) {
    obs::set_current_job(i);
    try {
      body(i, worker);
    } catch (...) {
      obs::clear_current_job();
      throw;
    }
    obs::clear_current_job();
  };
  if (workers <= 1 || num_jobs == 1) {
    // Serial reference path: no threads, no atomics — IMA_JOBS=1 runs the
    // exact code a pre-sweep bench ran. Deliberately not marked on_worker:
    // a serial sweep leaves the host cores to any sharded drains inside
    // the jobs (results are width-invariant either way).
    for (std::size_t i = 0; i < num_jobs; ++i) tagged(i, 0);
    return;
  }
  // One ephemeral pool per sweep — the sweep's lifetime IS the parallel
  // region, unlike a memory system's epoch loop which re-dispatches one
  // long-lived pool. Jobs see WorkerPool::on_worker() == true, which is
  // what collapses nested sharded drains to serial.
  WorkerPool pool(static_cast<unsigned>(std::min<std::size_t>(workers, num_jobs)));
  pool.parallel_for(num_jobs, tagged);
}

}  // namespace ima::harness
