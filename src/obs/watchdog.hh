// No-progress watchdog + flight recorder.
//
// A wedged event loop is the worst observability failure mode: the process
// spins (or crawls cycle-by-cycle through a refresh backlog that can never
// drain), produces no artifact, and leaves nothing to diagnose — the PR 5
// RAIDR parked-bank deadlock had to be bisected by hand. The watchdog turns
// that into a one-run diagnosis: hook iterate() into the event loop, give it
// a progress token (any monotonic digest of observable work — command
// state-versions, retire counts), and if the token freezes for more than
// `stall_cycles` of simulated time — or, optionally, `host_seconds` of wall
// time — while the loop keeps iterating, it writes a flight-recorder
// artifact (last-K trace events, a StatRegistry snapshot, free-form
// component dumps) and throws WatchdogError.
//
// Cost when armed: one increment and one predictable branch per loop
// iteration; the real check runs every `check_interval` iterations. Not
// armed (no Watchdog constructed / null pointer at the call site): nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ima::obs {

class StatRegistry;
class TraceSink;

/// Sweep-job tag for default watchdog artifact names. The sweep engine
/// (harness::run_indexed) brackets every job body with set/clear, so a
/// Watchdog constructed inside a job captures the index and two jobs that
/// both arm id="run" write WATCHDOG_run.job<i>.json instead of racing on
/// one path (last-writer-wins would overwrite the first casualty's
/// evidence with the second's). Thread-local: each worker tags its own
/// constructions only.
void set_current_job(std::size_t index);
void clear_current_job();
/// -1 outside any sweep job.
std::ptrdiff_t current_job();

/// Thrown after the flight-recorder artifact is written; what() carries the
/// artifact path so a CI log points straight at the evidence.
class WatchdogError : public std::runtime_error {
 public:
  WatchdogError(const std::string& what, std::string artifact)
      : std::runtime_error(what), artifact_(std::move(artifact)) {}
  const std::string& artifact() const { return artifact_; }

 private:
  std::string artifact_;
};

/// One shard's progress sample for the shard-aware stall detector: a
/// monotonic per-shard work digest plus whether that shard is legitimately
/// quiescent right now.
struct ShardProgress {
  std::uint64_t token = 0;
  bool idle = false;
};

class Watchdog {
 public:
  struct Config {
    std::string id = "run";           // artifact name: WATCHDOG_<id>.json
    Cycle stall_cycles = 2'000'000;   // sim cycles without progress => fire
    double host_seconds = 0;          // wall-clock limit; 0 = disabled
    std::uint64_t check_interval = 4096;  // iterate() calls between checks
    std::string artifact_path;        // "" => $IMA_BENCH_OUT/WATCHDOG_<id>.json
  };

  explicit Watchdog(Config cfg);

  /// Monotonic digest of observable work. Required for the sim-cycle stall
  /// detector; without it only the host-seconds limit can fire.
  void set_progress(std::function<std::uint64_t()> token);
  /// Optional: while true, the system is legitimately quiescent and the
  /// stall timers reset (a drained queue is not a wedge).
  void set_idle(std::function<bool()> idle);
  /// Shard-aware progress: `fill` appends one ShardProgress per shard
  /// (MemorySystem::shard_progress is the intended payload, one sample per
  /// channel). Each shard
  /// gets its own stall anchor, so one wedged shard fires even while the
  /// aggregate token keeps rising from the other shards' refresh traffic —
  /// the blind spot a single summed token has under sharded execution.
  /// Null disables. Checked on the same check()/iterate() cadence as the
  /// global token.
  void set_shard_progress(std::function<void(std::vector<ShardProgress>&)> fill);
  /// Named free-form dump included in the artifact (queue contents, FSM
  /// state, ...). The cycle argument is the fire-time cycle.
  void add_dump(std::string name, std::function<void(std::ostream&, Cycle)> fn);
  /// Last-K events from this sink land in the artifact's "trace" array.
  void set_trace(const TraceSink* sink) { trace_ = sink; }
  /// Snapshot of this registry lands in the artifact's "stats" object.
  void set_registry(const StatRegistry* reg) { registry_ = reg; }
  /// Escalation hook: when the watchdog fires, `writer` is called with
  /// `<artifact>.ckpt` before the JSON is written, so a externally-detected
  /// failure (fail()) at a quiescent point leaves a restorable checkpoint
  /// next to the flight recorder. A writer that throws (e.g. the system is
  /// mid-epoch and checkpointing refuses) degrades to a "checkpoint_error"
  /// field in the artifact — escalation never masks the original wedge.
  void set_checkpoint_writer(std::function<void(const std::string& path)> writer) {
    ckpt_writer_ = std::move(writer);
  }

  /// Call once per event-loop iteration; cheap until check_interval elapses.
  void iterate(Cycle now) {
    if (++iterations_ % cfg_.check_interval == 0) check(now);
  }

  /// The actual stall test; writes the artifact and throws WatchdogError on
  /// detection. Public so tests can force a check deterministically.
  void check(Cycle now);

  /// Externally-detected failure (e.g. MemorySystem's drain-deadline
  /// exhaustion with DeadlinePolicy::Throw): writes the same flight-recorder
  /// artifact as a stall detection — reason, trace tail, stats snapshot,
  /// component dumps — and throws WatchdogError. The loop was making
  /// progress, so no stalled-cycle count is reported.
  [[noreturn]] void fail(Cycle now, const std::string& why) { fire(now, 0, why); }

  bool fired() const { return fired_; }
  const std::string& artifact() const { return artifact_written_; }
  const Config& config() const { return cfg_; }

 private:
  [[noreturn]] void fire(Cycle now, Cycle stalled_for, const std::string& why);
  std::string resolve_artifact_path() const;

  void check_shards(Cycle now);

  Config cfg_;
  std::function<std::uint64_t()> progress_;
  std::function<bool()> idle_;
  std::function<void(std::vector<ShardProgress>&)> shard_fill_;
  struct ShardAnchor {
    bool set = false;
    std::uint64_t token = 0;
    Cycle cycle = 0;
  };
  std::vector<ShardProgress> shard_buf_;
  std::vector<ShardAnchor> shard_anchors_;
  std::vector<std::pair<std::string, std::function<void(std::ostream&, Cycle)>>> dumps_;
  const TraceSink* trace_ = nullptr;
  const StatRegistry* registry_ = nullptr;
  std::function<void(const std::string&)> ckpt_writer_;
  std::ptrdiff_t job_ = -1;     // current_job() at construction
  std::uint64_t dup_seq_ = 0;   // same (id, job) constructed before: .dup<n>

  std::uint64_t iterations_ = 0;
  bool baseline_set_ = false;
  std::uint64_t last_token_ = 0;
  Cycle anchor_cycle_ = 0;  // cycle when the token last changed
  std::chrono::steady_clock::time_point anchor_host_{};
  bool fired_ = false;
  std::string artifact_written_;
};

}  // namespace ima::obs
