#include "common/clock.hh"

#include <cstdlib>
#include <string_view>

#include "common/env.hh"

namespace ima::sim {

const char* to_string(ClockMode m) {
  switch (m) {
    case ClockMode::PerCycle: return "per-cycle";
    case ClockMode::SkipAhead: return "skip-ahead";
  }
  return "?";
}

Cycle default_shard_epoch() {
  static const Cycle epoch = [] {
    const Cycle v = env_uint("IMA_SHARD_EPOCH").value_or(0);
    return v > 0 ? v : Cycle{8192};
  }();
  return epoch;
}

Cycle conservative_epoch(std::initializer_list<Cycle> latencies, Cycle fallback) {
  Cycle bound = 0;
  for (const Cycle l : latencies)
    if (l > 0 && (bound == 0 || l < bound)) bound = l;
  return bound > 0 ? bound : (fallback > 0 ? fallback : 1);
}

ClockMode default_clock_mode() {
  static const ClockMode mode = [] {
    const char* env = std::getenv("IMA_CLOCK");
    if (!env || !*env) return ClockMode::SkipAhead;
    const std::string_view v = env;
    if (v == "percycle" || v == "per-cycle") return ClockMode::PerCycle;
    if (v == "skipahead" || v == "skip-ahead") return ClockMode::SkipAhead;
    env_reject("IMA_CLOCK", env, "expected percycle, per-cycle, skipahead or skip-ahead");
  }();
  return mode;
}

}  // namespace ima::sim
