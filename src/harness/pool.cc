#include "harness/pool.hh"

#include <algorithm>

#include "common/env.hh"

namespace ima::harness {

namespace {

// Depth, not a flag: the caller of an outer pool participates in its
// region while an inner (collapsed-to-inline) region runs on the same
// thread, and both must unwind cleanly.
thread_local unsigned g_on_worker_depth = 0;

struct ScopedOnWorker {
  ScopedOnWorker() { ++g_on_worker_depth; }
  ~ScopedOnWorker() { --g_on_worker_depth; }
};

unsigned parse_shards_env() {
  return static_cast<unsigned>(std::min<std::uint64_t>(env_uint("IMA_SHARDS").value_or(0), 64));
}

}  // namespace

bool WorkerPool::on_worker() { return g_on_worker_depth > 0; }

unsigned default_shards() {
  static const unsigned shards = parse_shards_env();
  return shards;
}

WorkerPool::WorkerPool(unsigned width) : width_(std::max(width, 1u)) {
  threads_.reserve(width_ - 1);
  for (unsigned w = 1; w < width_; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::worker_main(unsigned id) {
  const ScopedOnWorker mark;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const auto* body = body_;
    const std::size_t n = n_;
    lk.unlock();
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next_.fetch_add(1, std::memory_order_relaxed))
      (*body)(i, id);
    lk.lock();
    if (--active_ == 0) done_cv_.notify_one();
  }
}

void WorkerPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t, unsigned)>& body) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    // Serial reference path: no locks, no atomics — width 1 runs the exact
    // code a threadless caller would.
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
    active_ = static_cast<unsigned>(threads_.size());
  }
  work_cv_.notify_all();
  {
    const ScopedOnWorker mark;  // the caller is worker 0
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next_.fetch_add(1, std::memory_order_relaxed))
      body(i, 0);
  }
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return active_ == 0; });
  body_ = nullptr;
}

}  // namespace ima::harness
