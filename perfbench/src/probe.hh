// Host-time probes the benchmark places around its own calls into each
// simulator layer, plus the forwarding decorators that reach the two layers
// a caller cannot wrap from outside: the controller's scheduler and the
// access streams a System owns.
//
// Every probe is opt-in: the untraced run passes null spans and installs no
// decorator, so its end-to-end times carry no probe cost. The decorators
// forward every virtual unchanged (pick purity, time-triggered next_event,
// checkpoint state, name), so a traced run simulates exactly the cycles an
// untraced one does: the same stash elision, the same RL RNG draw cadence
// and the same checkpoint fingerprints.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/sched.hh"
#include "workloads/stream.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host seconds and call count accumulated at one layer boundary.
struct Span {
  double seconds = 0;
  std::uint64_t calls = 0;

  Span& operator+=(const Span& o) {
    seconds += o.seconds;
    calls += o.calls;
    return *this;
  }
  Span& operator-=(const Span& o) {
    seconds -= o.seconds;
    calls -= o.calls;
    return *this;
  }
};

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Calls `f()`, charging its host time to `span` when one is given.
template <typename F>
decltype(auto) timed(Span* span, F&& f) {
  if (!span) return f();
  struct Charge {
    Span* s;
    Clock::time_point t0 = Clock::now();
    ~Charge() {
      s->seconds += seconds_since(t0);
      ++s->calls;
    }
  } charge{span};
  return f();
}

/// Times pick() into its own span (one decorator per controller, so shard
/// threads never share one).
class TimedScheduler final : public ima::mem::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<ima::mem::Scheduler> inner)
      : inner_(std::move(inner)) {}

  const Span& pick_span() const { return pick_; }

  std::size_t pick(const std::vector<ima::mem::QueuedRequest>& q,
                   const ima::mem::SchedView& view) override {
    return timed(&pick_, [&] { return inner_->pick(q, view); });
  }
  void on_service(const ima::mem::QueuedRequest& r, const ima::mem::SchedView& v) override {
    inner_->on_service(r, v);
  }
  void tick(const ima::mem::SchedView& v, std::vector<ima::mem::QueuedRequest>& q) override {
    inner_->tick(v, q);
  }
  ima::Cycle next_event(ima::Cycle now) const override { return inner_->next_event(now); }
  bool pick_is_pure() const override { return inner_->pick_is_pure(); }
  void register_stats(ima::obs::StatRegistry& reg, const std::string& prefix) const override {
    inner_->register_stats(reg, prefix);
  }
  void set_trace(ima::obs::TraceSink* sink) override { inner_->set_trace(sink); }
  void save_state(ima::ckpt::Sink& s) const override { inner_->save_state(s); }
  void load_state(ima::ckpt::Source& s) override { inner_->load_state(s); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ima::mem::Scheduler> inner_;
  Span pick_;
};

/// Times next() into its own span.
class TimedStream final : public ima::workloads::AccessStream {
 public:
  explicit TimedStream(std::unique_ptr<ima::workloads::AccessStream> inner)
      : inner_(std::move(inner)) {}

  const Span& next_span() const { return next_; }

  ima::workloads::TraceEntry next() override {
    return timed(&next_, [&] { return inner_->next(); });
  }
  std::string name() const override { return inner_->name(); }
  void save_state(ima::ckpt::Sink& s) const override { inner_->save_state(s); }
  void load_state(ima::ckpt::Source& s) override { inner_->load_state(s); }

 private:
  std::unique_ptr<ima::workloads::AccessStream> inner_;
  Span next_;
};

/// Per-layer host times and counters of one traced repetition. Spans a
/// workload never calls stay zero. `covered_s` is the sum of the workload's
/// outermost spans, which partition its timed phase.
struct Layers {
  Span pick, tick, next_event, can_accept, enqueue, stream_next, graph_gen, tensor_next;
  Span run_pnm, run_host, system_run, save, restore, drain, pump;
  double covered_s = 0;
  std::uint64_t cycles_ticked = 0;  // simulated cycles the benchmark loop advanced over
  std::uint64_t accept_attempts = 0, accepted = 0;
  std::uint64_t pnm_instructions = 0, pnm_local = 0, pnm_remote = 0;
  double ipc_mean = 0, l1_hit_rate = 0, l2_hit_rate = 0, prefetch_useful = 0;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t pushed = 0, completed = 0, shard_workers = 0, drain_clips = 0;
  double row_hit_rate = 0, read_p99 = 0;
  double span_queue = 0, span_stall = 0, span_refresh = 0, span_xfer = 0;
};

/// A named metric value with its unit, in report order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The per-layer metric list, in the fixed names BENCHMARK.json declares.
Metrics layer_metrics(const Layers& l);

}  // namespace perfbench
