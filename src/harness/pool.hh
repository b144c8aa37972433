// Reusable worker pool: persistent threads, atomic index claiming.
//
// Extracted from the sweep engine (PR 3) so that both fan-out styles share
// one pool implementation:
//
//   - run_sweep(): many independent jobs, one pool per sweep call, jobs
//     claimed until the list drains;
//   - MemorySystem sharded drains: one long-lived pool per memory system,
//     re-dispatched every epoch between barriers (thousands of small
//     parallel regions over the same channel blocks).
//
// The pool is deliberately dumb: parallel_for(n, body) runs body(i, worker)
// for every i in [0, n), claiming indices from an atomic counter. The
// calling thread participates as worker 0 and the call returns only when
// every index has finished (a full barrier). Determinism is the caller's
// job — bodies must make results a function of the index, never of the
// worker id or claim order (see DESIGN.md "Sweep engine").
//
// on_worker() is the oversubscription guard: it is true on pool worker
// threads (and on the caller while it participates in a multi-thread
// parallel_for). Nested parallelism checks it and collapses to serial —
// a sharded drain inside an IMA_JOBS sweep job runs inline instead of
// spawning shards-per-job × jobs threads (tests/shard_test.cc proves the
// results are byte-identical either way).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ima::harness {

class WorkerPool {
 public:
  /// Spawns width - 1 threads (the caller is always worker 0). width <= 1
  /// builds a threadless pool whose parallel_for runs inline.
  explicit WorkerPool(unsigned width);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned width() const { return width_; }

  /// Runs body(i, worker) for every i in [0, n) and barriers: returns only
  /// when all n indices completed. Indices are claimed from an atomic
  /// counter, so the i -> worker assignment is nondeterministic; results
  /// must depend on i alone. `body` must not throw (wrap jobs like
  /// run_sweep does).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, unsigned)>& body);

  /// True while the current thread is executing inside a parallel_for of
  /// any pool (worker thread or participating caller). The nested-
  /// parallelism guard: check before fanning out again.
  static bool on_worker();

 private:
  void worker_main(unsigned id);

  unsigned width_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t, unsigned)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::uint64_t generation_ = 0;  // bumped per parallel_for dispatch
  unsigned active_ = 0;           // spawned workers still in the region
  bool stop_ = false;
};

/// Shard width for intra-sim sharding: $IMA_SHARDS when set to a positive
/// integer (capped at 64), else 0 = "no shard plan" (callers that want
/// sharded semantics regardless use max(1u, default_shards())). Read once
/// and cached; a malformed value throws (common/env.hh). Distinct from
/// IMA_JOBS on purpose: sweeps parallelize *across* simulations, shards
/// parallelize *inside* one.
unsigned default_shards();

}  // namespace ima::harness
