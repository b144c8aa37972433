// Set-associative cache with pluggable replacement policies.
//
// Policies cover the fixed-heuristic baselines the paper's data-driven
// critique names (LRU, RRIP-family) plus an EAF-style filter (Seshadri et
// al., PACT 2012 [160]) that uses recent-eviction history — an early form
// of decision-making from observed data.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace ima::obs {
class StatRegistry;
}  // namespace ima::obs

namespace ima::cache {

enum class ReplPolicy : std::uint8_t { Lru, Random, Srrip, Drrip, EafLru };

const char* to_string(ReplPolicy p);

struct CacheConfig {
  std::string name = "L1";
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t ways = 8;
  ReplPolicy repl = ReplPolicy::Lru;
  Cycle hit_latency = 4;
  std::uint64_t seed = 1;

  std::uint32_t sets() const {
    return static_cast<std::uint32_t>(size_bytes / (static_cast<std::uint64_t>(ways) * kLineBytes));
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  struct FillResult {
    std::optional<Addr> evicted;    // victim line (clean or dirty)
    bool evicted_dirty = false;     // true -> the victim needs writeback
  };

  struct AccessResult {
    bool hit = false;
    FillResult fill;  // populated on miss (allocation side effects)
  };

  /// Looks up `addr`; on miss, allocates the line immediately (the caller
  /// models fill latency) and reports any victim.
  AccessResult access(Addr addr, AccessType type);

  /// Lookup without allocation or LRU update (probe).
  bool contains(Addr addr) const;

  /// Install a line without it being a demand access (prefetch fill).
  FillResult fill(Addr addr, bool dirty = false);

  /// Invalidate a line; returns its dirty-writeback address if any.
  std::optional<Addr> invalidate(Addr addr);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    template <class Ar>
    void fields(Ar& ar) {
      ar(hits, misses, evictions, writebacks);
    }
    double miss_rate() const {
      const auto total = hits + misses;
      return total ? static_cast<double>(misses) / static_cast<double>(total) : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }
  const CacheConfig& config() const { return cfg_; }

  /// Hit/miss/eviction counters plus a live miss-rate gauge under `prefix`.
  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const;

  /// Checkpoint lines, LRU clock, replacement RNG/duel state and stats.
  /// The EAF set is rebuilt from the serialized FIFO on load.
  template <class Ar>
  void fields(Ar& ar);

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    Addr tag = 0;
    std::uint64_t lru = 0;      // higher = more recent
    std::uint8_t rrpv = 3;      // RRIP re-reference prediction value

    template <class Ar>
    void fields(Ar& ar) {
      ar(valid, dirty, tag, lru, rrpv);
    }
  };

  std::uint32_t set_of(Addr addr) const;
  Addr tag_of(Addr addr) const { return line_base(addr); }
  Line* find(Addr addr);
  const Line* find(Addr addr) const;
  std::uint32_t choose_victim(std::uint32_t set);
  void touch(Line& line, bool is_insert);

  CacheConfig cfg_;
  std::vector<Line> lines_;  // sets * ways, row-major by set
  std::uint64_t clock_ = 0;
  Rng rng_;
  Stats stats_;

  // DRRIP set-dueling state.
  std::uint32_t psel_ = 512;
  // EAF: recent-eviction filter (bounded FIFO set). The FIFO and the set
  // always hold the same tags, so a restore rebuilds the set from the FIFO.
  std::deque<Addr> eaf_fifo_;
  std::unordered_set<Addr> eaf_set_;
};

}  // namespace ima::cache
