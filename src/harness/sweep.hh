// Parallel sweep engine for independent simulation configs.
//
// The paper's claims are regenerated by ablation sweeps — scheduler
// matrices, RowHammer thresholds, DRAM presets, inject rates — whose points
// are embarrassingly parallel: every job owns its own System / StatRegistry
// / seed-derived Rng, so N points can run on N workers with no simulator
// state shared between them. run_sweep() is the harness for that fan-out:
//
//   - a fixed-size worker pool (width = $IMA_JOBS, default
//     hw_concurrency; IMA_JOBS=1 is the serial reference — jobs run inline
//     on the calling thread with no thread machinery at all);
//   - results land in *submission order* regardless of completion order,
//     so merged tables and reports are byte-identical at any width
//     (tests/sweep_test.cc proves 1-vs-8 bit-equality);
//   - a job that throws is retried in place with exponential backoff
//     (IMA_SWEEP_RETRIES, default 0) before becoming a per-job Failure
//     record (config label + exception message + deterministic seed +
//     attempt count) instead of killing the sweep — the other N-1 results
//     stay intact, and add_failure_table() stamps the dead points into the
//     BENCH artifact so a degraded sweep is still a complete record;
//   - a per-job wall-clock budget (IMA_SWEEP_TIMEOUT seconds) arms
//     JobContext::deadline; jobs poll check_deadline() at their epoch
//     granularity and the resulting SweepTimeout goes through the same
//     retry machinery as any other failure;
//   - each job gets an obs::ReportFragment to record metrics/rows/stats
//     into; fragments are private to the job while it runs and merged by
//     the caller at the barrier, which is what keeps the obs layer free of
//     cross-thread writes.
//
// Determinism contract (see DESIGN.md "Sweep engine"): a job may touch only
// its config, its JobContext and state it constructs itself. Anything
// process-global (std::cout, the bench_util session report, a shared Rng)
// is off limits inside a job; the barrier is where per-job output joins the
// world, in submission order.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/report.hh"

namespace ima::harness {

/// Sweep width: $IMA_JOBS when set to a positive integer, else
/// std::thread::hardware_concurrency() (at least 1), capped at 1024. Read
/// once and cached; a malformed value throws (common/env.hh).
unsigned default_jobs();

/// Deterministic per-job seed: the same (base, index) pair always yields
/// the same seed, independent of worker count or completion order.
std::uint64_t job_seed(std::uint64_t base, std::size_t index);

/// $IMA_SWEEP_RETRIES: extra attempts after a job's first failure
/// (default 0 — fail fast, the pre-retry behaviour), capped at 64. Read once
/// and cached; a malformed value throws (common/env.hh).
unsigned default_sweep_retries();

/// $IMA_SWEEP_TIMEOUT: per-job wall-clock budget in seconds (fractions
/// allowed; default 0 = no deadline). Read once and cached; a value that is
/// not a finite non-negative decimal throws (common/env.hh).
double default_sweep_timeout();

/// Thrown by JobContext::check_deadline() when the per-job wall-clock
/// budget is exhausted. Goes through the normal retry machinery: a
/// transiently slow host gets another attempt, a genuinely wedged config
/// becomes a Failure whose message names the timeout.
class SweepTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Runs body(index, worker) for index in [0, num_jobs) on `workers`
/// threads (inline on the caller when workers <= 1 or num_jobs <= 1).
/// Indices are claimed from an atomic counter, so submission order is the
/// claim order but completion order is arbitrary. `body` must not throw —
/// run_sweep() wraps jobs in the catch-all below before handing them here.
void run_indexed(std::size_t num_jobs, unsigned workers,
                 const std::function<void(std::size_t, unsigned)>& body);

/// One failed sweep point: which config, what it threw (on its final
/// attempt), and enough provenance to rerun the exact job — the
/// deterministic seed, how many attempts were burned, and how long they
/// took in total.
struct Failure {
  std::size_t index = 0;
  std::string config;   // label of the config that failed
  std::string message;  // exception text ("non-exception throw" otherwise)
  std::uint64_t seed = 0;       // job_seed(opt.seed_base, index)
  std::uint32_t attempts = 1;   // total attempts including the first
  double wall_seconds = 0;      // wall time across all attempts
};

struct SweepOptions {
  /// 0 = default_jobs(). 1 runs jobs inline on the calling thread.
  unsigned jobs = 0;
  /// Label for failure records, by submission index ("job <i>" if unset).
  std::function<std::string(std::size_t)> label;
  /// Base for job_seed(); stamps JobContext::seed and Failure::seed so a
  /// dead point can be rerun standalone with the identical stream.
  std::uint64_t seed_base = 0;
  /// Extra attempts after the first failure. Negative = $IMA_SWEEP_RETRIES.
  int retries = -1;
  /// Per-job wall-clock budget in seconds, armed per *attempt* so a retry
  /// starts with a full budget. Negative = $IMA_SWEEP_TIMEOUT; 0 disables.
  double timeout_seconds = -1;
  /// First retry backs off this long; doubles per attempt (capped at 1s).
  /// Backoff is host scheduling only — results never depend on it.
  unsigned backoff_ms = 1;
};

/// What a job sees while running: its submission index, the worker it
/// happens to run on (diagnostics only — results never depend on it), its
/// private report fragment, and the crash-resilience context (seed,
/// attempt number, wall-clock deadline).
struct JobContext {
  std::size_t index = 0;
  unsigned worker = 0;
  obs::ReportFragment& fragment;
  std::uint64_t seed = 0;  // job_seed(opt.seed_base, index)
  unsigned attempt = 0;    // 0 = first try
  /// time_point::max() when no budget is armed.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  bool deadline_expired() const { return std::chrono::steady_clock::now() >= deadline; }
  /// Poll at epoch granularity; throws SweepTimeout past the deadline.
  /// Cooperative by design: jobs share the process, so preemption would
  /// tear simulator state mid-epoch — the throw lands at a quiescent point
  /// where a retry (or a checkpoint-warmed retry) can restart cleanly.
  void check_deadline() const;
};

template <typename R>
struct SweepResult {
  /// Submission order; nullopt where the job failed.
  std::vector<std::optional<R>> results;
  /// Submission order, one per job — empty fragments for failed jobs.
  std::vector<obs::ReportFragment> fragments;
  /// Ascending by index.
  std::vector<Failure> failures;
  unsigned workers = 1;
  double wall_seconds = 0;

  bool ok() const { return failures.empty(); }
  /// The result of job i. Precondition: job i succeeded.
  const R& at(std::size_t i) const { return *results[i]; }
};

namespace detail {
/// Exponential backoff before retry `attempt_just_failed + 1`:
/// backoff_ms << n, capped at 1s. Lives in the .cc so the header stays
/// <thread>-free.
void backoff_sleep(unsigned attempt_just_failed, unsigned backoff_ms);

/// Lazily picks fn's result type for the supported call shape — a plain
/// conditional_t would instantiate invoke_result for the shape fn does
/// *not* support and fail to compile.
template <typename Fn, typename Config, bool OneArg = std::is_invocable_v<Fn&, const Config&>>
struct JobResult {
  using type = std::invoke_result_t<Fn&, const Config&>;
};
template <typename Fn, typename Config>
struct JobResult<Fn, Config, false> {
  using type = std::invoke_result_t<Fn&, const Config&, JobContext&>;
};
}  // namespace detail

/// Runs fn over every config on the worker pool and barriers. `fn` is
/// invoked as fn(config, ctx) (or fn(config) when it takes one argument)
/// and its return value is the job's result. Everything fn touches beyond
/// its arguments must be job-local — see the determinism contract above.
template <typename Config, typename Fn>
auto run_sweep(const std::vector<Config>& configs, Fn&& fn, SweepOptions opt = {}) {
  using R = typename detail::JobResult<Fn, Config>::type;
  static_assert(!std::is_void_v<R>, "sweep jobs must return their result");

  SweepResult<R> out;
  out.results.resize(configs.size());
  out.fragments.resize(configs.size());
  std::vector<std::optional<Failure>> failed(configs.size());
  const unsigned workers = opt.jobs ? opt.jobs : default_jobs();
  out.workers = workers;

  const int retries =
      opt.retries >= 0 ? opt.retries : static_cast<int>(default_sweep_retries());
  const double timeout =
      opt.timeout_seconds >= 0 ? opt.timeout_seconds : default_sweep_timeout();

  const auto start = std::chrono::steady_clock::now();
  run_indexed(configs.size(), workers, [&](std::size_t i, unsigned worker) {
    const std::uint64_t seed = job_seed(opt.seed_base, i);
    const auto job_start = std::chrono::steady_clock::now();
    std::string last_error;
    for (int attempt = 0;; ++attempt) {
      // Each attempt starts from a clean slate: a retried job must leave
      // no trace of the attempt that died, or merged reports would differ
      // between a first-try run and a retried one.
      out.fragments[i] = obs::ReportFragment{};
      JobContext ctx{i, worker, out.fragments[i]};
      ctx.seed = seed;
      ctx.attempt = static_cast<unsigned>(attempt);
      if (timeout > 0) {
        ctx.deadline = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(timeout));
      }
      try {
        if constexpr (std::is_invocable_v<Fn&, const Config&>) {
          (void)ctx;
          out.results[i].emplace(fn(configs[i]));
        } else {
          out.results[i].emplace(fn(configs[i], ctx));
        }
        return;  // success
      } catch (const std::exception& e) {
        last_error = e.what();
      } catch (...) {
        last_error = "non-exception throw";
      }
      if (attempt >= retries) {
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - job_start)
                .count();
        failed[i] = Failure{i, opt.label ? opt.label(i) : "job " + std::to_string(i),
                            last_error, seed, static_cast<std::uint32_t>(attempt + 1), wall};
        out.fragments[i] = obs::ReportFragment{};  // partial output is discarded
        return;
      }
      detail::backoff_sleep(static_cast<unsigned>(attempt), opt.backoff_ms);
    }
  });
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  for (auto& f : failed)
    if (f) out.failures.push_back(std::move(*f));
  return out;
}

/// Graceful degradation: stamps the dead points into `report` as a
/// "dead points" table (index, config, seed, attempts, wall seconds, final
/// error) and a `dead_points` metric, so an exhausted-retries sweep emits a
/// partial-but-stamped BENCH artifact instead of silently dropping rows.
/// No-op when `failures` is empty — a clean sweep's artifact is
/// byte-identical to the pre-retry format.
void add_failure_table(obs::Report& report, const std::vector<Failure>& failures);

}  // namespace ima::harness
