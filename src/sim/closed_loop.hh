// Closed-loop request injection on the shared event kernel.
//
// Each injector models one core with a memory-level-parallelism budget (an
// OoO window's worth of outstanding misses): it keeps `mlp` requests in
// flight from its access stream, so a controller's request queue is deep
// enough for scheduling policy to matter — a blocking-core model would
// hold one request per core.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/clock.hh"
#include "mem/request.hh"
#include "workloads/stream.hh"

namespace ima::sim {

struct Injector {
  std::unique_ptr<workloads::AccessStream> stream;
  std::uint32_t mlp = 8;
  std::uint32_t outstanding = 0;
  std::uint64_t served = 0;  // completions, reads and writes
  std::uint64_t reads = 0;   // read completions
  double read_latency_sum = 0;

  double mean_read_latency() const {
    return reads ? read_latency_sum / static_cast<double>(reads) : 0.0;
  }
};

class ClosedLoop {
 public:
  explicit ClosedLoop(std::vector<Injector> injectors) : injectors_(std::move(injectors)) {
    for (const auto& in : injectors_)
      if (in.outstanding < in.mlp) ++below_mlp_;
  }
  // In-flight completion callbacks point at this object and its injectors.
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Injects then ticks `mem` over [from, until) and returns `until`, in
  /// the memory's own clock mode. Injector i issues as core i. A drawn
  /// entry the memory cannot accept is dropped, not retried. `Mem` is any
  /// memory with can_accept(addr, type, core), enqueue(req, cb),
  /// tick(now), next_event(now) and clock_mode(). Consecutive runs
  /// continue one another: run(a, b) then run(b, c) is run(a, c).
  template <typename Mem>
  Cycle run(Mem& mem, Cycle from, Cycle until) {
    // A core below its MLP budget injects every cycle, so the loop can only
    // skip while every window is full: exactly the cycles where an
    // injection pass would be a no-op. below_mlp_ counts the cores with
    // window room, so that test is one compare instead of a scan.
    return run_event_loop(
        mem.clock_mode(), from, until,
        [&](Cycle now) {
          if (below_mlp_ > 0) {
            for (std::size_t i = 0; i < injectors_.size(); ++i) inject(mem, i, now);
          }
          mem.tick(now);
        },
        [] { return false; },
        [&](Cycle now) { return below_mlp_ > 0 ? now + 1 : mem.next_event(now); });
  }

  const std::vector<Injector>& injectors() const { return injectors_; }

  std::uint64_t total_served() const {
    std::uint64_t n = 0;
    for (const auto& in : injectors_) n += in.served;
    return n;
  }

 private:
  template <typename Mem>
  void inject(Mem& mem, std::size_t i, Cycle now) {
    Injector& in = injectors_[i];
    const auto core = static_cast<std::uint32_t>(i);
    while (in.outstanding < in.mlp) {
      const auto e = in.stream->next();
      if (!mem.can_accept(e.addr, e.type, core)) break;
      mem::Request r;
      r.addr = e.addr;
      r.type = e.type;
      r.core = core;
      r.arrive = now;
      if (++in.outstanding == in.mlp) --below_mlp_;
      if (!mem.enqueue(r, [this, &in](const mem::Request& done) { complete(in, done); })) {
        if (in.outstanding-- == in.mlp) ++below_mlp_;
        break;
      }
    }
  }

  void complete(Injector& in, const mem::Request& done) {
    if (in.outstanding > 0) {
      if (in.outstanding-- == in.mlp) ++below_mlp_;
    }
    ++in.served;
    if (done.type == AccessType::Read) {
      in.read_latency_sum += static_cast<double>(done.complete - done.arrive);
      ++in.reads;
    }
  }

  std::vector<Injector> injectors_;
  std::uint32_t below_mlp_ = 0;
};

}  // namespace ima::sim
