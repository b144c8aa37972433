// Shared helpers for the experiment harnesses (bench_c1 .. bench_c23).
//
// Each bench binary regenerates one claim from DESIGN.md's experiment
// index: it builds the workload, runs the simulator configurations, and
// prints the paper-style table plus the expected "shape" so the output is
// self-checking for a human reader.
//
// Alongside the console output, the helpers feed an implicit obs::Report:
// print_header() opens it (and immediately checkpoints a complete=false
// artifact, so a bench that dies mid-run leaves a BENCH_<id>.json that is
// *stamped* partial instead of masquerading as finished), print_table()/
// print_shape()/record_metric() populate it, print_shape() stamps it
// complete — the orderly end of an experiment — and the final flush lands
// in BENCH_<id>.json and BENCH_<id>.csv ($IMA_BENCH_OUT, else the cwd).
//
// Multi-config benches fan their points out through bench::sweep(), which
// wraps harness::run_sweep: each job records into a private
// obs::ReportFragment (never this file's process-global session — workers
// appending rows to it, or interleaving std::cout table prints, would
// race), and the barrier merges fragments and prints tables in submission
// order on the main thread only.
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "harness/sweep.hh"
#include "mem/request.hh"
#include "obs/report.hh"

namespace ima::bench {

namespace detail {

/// "C7: RAIDR retention-aware refresh" -> "C7" (text before the first ':',
/// spaces and slashes mapped to '_' so it is a safe file-name stem).
inline std::string file_id_of(const std::string& header_id) {
  std::string id = header_id.substr(0, header_id.find(':'));
  for (char& c : id)
    if (c == ' ' || c == '/' || c == '\t') c = '_';
  return id.empty() ? "bench" : id;
}

/// The per-process report. A plain inline global, touched only from the
/// main thread: sweep jobs get per-job fragments instead (bench::sweep),
/// so nothing here needs a lock.
struct Session {
  std::unique_ptr<obs::Report> report;

  ~Session() { flush(); }

  /// Writes the report's current state without closing it, so the on-disk
  /// artifact tracks progress: until print_shape() stamps it complete, a
  /// crash leaves a file with "complete": false.
  void checkpoint() {
    if (!report) return;
    const std::string dir = obs::Report::default_out_dir();
    if (!report->write_files(dir))
      std::cerr << "warning: could not write BENCH_" << report->id()
                << ".{json,csv} to " << dir << "\n";
  }

  void flush() {
    checkpoint();
    report.reset();
  }
};

inline Session session;

}  // namespace detail

/// Closed-loop bench feed: the caller has already sized its in-flight
/// window against the queue depth, so a reject means the bench's own
/// pacing logic is broken — fail loudly instead of silently dropping the
/// request (and under-counting exactly the congested samples a latency
/// bench exists to measure).
template <typename Sys>
inline void enqueue_or_die(Sys& sys, const mem::Request& req,
                           mem::CompletionCallback cb = nullptr) {
  if (!sys.enqueue(req, std::move(cb))) {
    std::cerr << "bench: enqueue rejected at addr 0x" << std::hex << req.addr
              << std::dec << " — pacing bug, aborting\n";
    std::abort();
  }
}

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
  detail::session.flush();  // a binary printing two headers gets two reports
  detail::session.report =
      std::make_unique<obs::Report>(detail::file_id_of(id), id, claim);
  detail::session.checkpoint();  // crash artifact exists from the start
}

inline void print_table(const Table& t, std::string title = "") {
  t.print(std::cout);
  std::cout << std::flush;
  if (detail::session.report) {
    detail::session.report->add_table(t, std::move(title));
    detail::session.checkpoint();
  }
}

/// The orderly end of an experiment: records the expected shape and stamps
/// the report complete. Artifacts missing this stamp died mid-run.
inline void print_shape(const std::string& expectation) {
  std::cout << "\nexpected shape: " << expectation << "\n";
  if (detail::session.report) {
    detail::session.report->set_shape(expectation);
    detail::session.report->set_complete(true);
    detail::session.checkpoint();
  }
}

/// Adds a scalar to the current report's "metrics" section (no console
/// output — the tables already carry the human-readable numbers).
inline void record_metric(std::string name, double value) {
  if (detail::session.report)
    detail::session.report->add_metric(std::move(name), value);
}

/// Attaches a registry snapshot to the current report's "stats" section.
inline void record_snapshot(const obs::StatRegistry::Snapshot& snap) {
  if (detail::session.report) detail::session.report->add_snapshot(snap);
}

/// Appends a windowed sampler's output to the current report's
/// "timeseries" block (counter tracks are delta-encoded at export).
inline void record_timeseries(const obs::TimeSeriesData& d) {
  if (detail::session.report) detail::session.report->add_timeseries(d);
}

/// Fans `configs` out on the worker pool ($IMA_JOBS wide) and, at the
/// barrier, merges every job's ReportFragment into the session report in
/// submission order — so BENCH_<id>.json is byte-identical at any width.
/// Failures print to stderr and are tallied under sweep.<label>.failures;
/// the per-sweep wall clock and worker count land beside them.
template <typename Config, typename Fn>
auto sweep(const std::string& label, const std::vector<Config>& configs, Fn&& fn,
           harness::SweepOptions opt = {}) {
  auto res = harness::run_sweep(configs, std::forward<Fn>(fn), std::move(opt));
  for (const auto& f : res.failures)
    std::cerr << "sweep '" << label << "': job " << f.index << " (" << f.config
              << ") failed: " << f.message << "\n";
  if (detail::session.report) {
    for (const auto& frag : res.fragments) detail::session.report->merge(frag);
    record_metric("sweep." + label + ".jobs", static_cast<double>(configs.size()));
    record_metric("sweep." + label + ".workers", static_cast<double>(res.workers));
    record_metric("sweep." + label + ".wall_seconds", res.wall_seconds);
    record_metric("sweep." + label + ".failures", static_cast<double>(res.failures.size()));
  }
  return res;
}

/// Appends every fragment row of a finished sweep to `t`, submission order.
template <typename R>
inline void add_sweep_rows(Table& t, const harness::SweepResult<R>& res) {
  for (const auto& frag : res.fragments)
    for (const auto& row : frag.rows()) t.add_row(row);
}

/// Cycle-count scaling for smoke runs: IMA_BENCH_SMOKE=1 shrinks the
/// heavyweight sweeps so CI (and the TSan job) can run a retrofitted bench
/// end-to-end in seconds. Returns `full` unless smoke mode is on (any
/// nonzero integer); a value that is not an integer throws (common/env.hh).
inline Cycle smoke_scaled(Cycle full, Cycle smoke) {
  return env_uint("IMA_BENCH_SMOKE").value_or(0) != 0 ? smoke : full;
}

}  // namespace ima::bench
