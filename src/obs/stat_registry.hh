// Hierarchical statistics registry — the enumeration layer promised by
// common/stats.hh. Components keep owning their stats as plain value
// members; register_stats() hands the registry *borrowed pointers* (or
// closures) under dotted paths ("mem.ctrl0.row_hits", "cache.l2.miss_rate")
// so reporters can enumerate, snapshot and diff them without knowing any
// component's concrete Stats struct.
//
// Lifetime rule: register after the simulated topology is final (schedulers
// swapped in, policies installed) and before the owning objects die — the
// registry never copies the underlying storage.
//
// That rule is *enforced*, not just documented: top-level owners (System,
// MemorySystem, HybridMemory) open an OwnerScope around their
// register_stats() body, tagging every entry registered inside it with the
// owner's liveness token. Reading a tagged entry after its owner died
// throws std::logic_error — a sweep job that snapshots a destroyed System
// becomes a loud per-job failure record instead of a garbage report row.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"

namespace ima::obs {

class TailRecorder;

/// Counters are monotonic (diff subtracts), gauges are instantaneous levels
/// (diff keeps the later value).
enum class StatKind : std::uint8_t { Counter, Gauge };

/// "mem" + "ctrl0" -> "mem.ctrl0"; empty prefix or name passes through.
std::string join_path(std::string_view prefix, std::string_view name);

class StatRegistry {
 public:
  struct Entry {
    std::string path;
    StatKind kind;
    std::function<double()> read;
    /// Liveness of the registration epoch's owner; entries registered
    /// outside any OwnerScope are unwatched (checked() is always true).
    std::weak_ptr<const void> owner;
    bool watched = false;
  };

  /// RAII registration epoch: entries registered while the scope is open
  /// are tied to `alive` (a token the owning component resets on
  /// destruction — see System::register_stats). Scopes nest; the innermost
  /// open scope tags the entry.
  class OwnerScope {
   public:
    OwnerScope(StatRegistry& reg, std::weak_ptr<const void> alive);
    ~OwnerScope();
    OwnerScope(const OwnerScope&) = delete;
    OwnerScope& operator=(const OwnerScope&) = delete;

   private:
    StatRegistry& reg_;
  };

  /// Monotonic counter backed by the component's own member.
  void counter(std::string path, const std::uint64_t* v);
  /// Counter whose value is computed on demand (e.g. a sum).
  void counter_fn(std::string path, std::function<double()> fn);
  /// Instantaneous level computed on demand.
  void gauge(std::string path, std::function<double()> fn);
  /// Expands a RunningStat into <path>.count/.mean/.min/.max/.stddev.
  void running(const std::string& path, const RunningStat* rs);
  /// Expands a Histogram into
  /// <path>.count/.mean/.p50/.p95/.p99/.p999/.max.
  void histogram(const std::string& path, const Histogram* h);
  /// Expands a TailRecorder into the full latency-report shape:
  /// <path>.count/.sum/.mean/.min/.max/.stddev/.p50/.p95/.p99/.p999.
  void tail(const std::string& path, const TailRecorder* t);

  std::size_t size() const { return entries_.size(); }
  bool contains(std::string_view path) const { return find(path) != nullptr; }
  const Entry* find(std::string_view path) const;

  /// Current value of one stat, if registered.
  std::optional<double> value(std::string_view path) const;

  /// Entries whose path starts with `prefix` ("" = all), registration order.
  std::vector<const Entry*> match(std::string_view prefix = {}) const;

  /// A cheap point-in-time copy of every value (sorted by path) — the
  /// snapshot/diff pair is how per-phase statistics are taken.
  struct Snapshot {
    struct Value {
      std::string path;
      StatKind kind;
      double value;
    };
    std::vector<Value> values;  // sorted by path
    std::optional<double> at(std::string_view path) const;
    std::size_t size() const { return values.size(); }
    /// One "path=value" line per value (default ostream formatting), in
    /// path order: the text the equivalence tests compare and hash.
    std::string render() const;
  };
  Snapshot snapshot(std::string_view prefix = {}) const;

  /// Per-phase view: counters report after-before, gauges report their
  /// `after` value; paths absent from `before` pass through unchanged.
  static Snapshot diff(const Snapshot& before, const Snapshot& after);

 private:
  /// Throws std::logic_error when `e`'s registration epoch has ended (its
  /// owner was destroyed) — the stale-pointer read would be garbage.
  static void check_alive(const Entry& e);

  std::vector<Entry> entries_;
  std::vector<std::weak_ptr<const void>> owner_stack_;  // open OwnerScopes
};

}  // namespace ima::obs
