// Refresh management policies.
//
// Baseline: all-bank auto-refresh every tREFI, sized for worst-case 64ms
// retention. RAIDR (Liu et al., ISCA 2012 [21]) is the paper's example of
// an intelligent retention-aware controller: rows are profiled into
// retention bins and only the weak minority is refreshed at the worst-case
// rate, eliminating ~75% of refresh work.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "dram/channel.hh"

namespace ima::obs {
class StatRegistry;
}  // namespace ima::obs

namespace ima::ckpt {
class Sink;
class Source;
}  // namespace ima::ckpt

namespace ima::mem {

/// Per-row retention bins. Interval multipliers are relative to the base
/// 64ms window (bin 0 = must refresh every window, bin k = every 2^k).
struct RetentionProfile {
  std::uint32_t num_bins = 3;
  std::vector<std::uint8_t> bin_of_row;  // indexed by global row id

  /// Generates a profile with the RAIDR-like skew: almost all rows retain
  /// far longer than the worst case.
  ///   P(bin 0, <=64ms)  = weak_frac    (default 0.1%)
  ///   P(bin 1, <=128ms) = mid_frac     (default 1%)
  ///   P(bin 2)          = the rest
  static RetentionProfile generate(std::uint64_t total_rows, double weak_frac = 0.001,
                                   double mid_frac = 0.01, std::uint64_t seed = 7);

  std::uint64_t rows_in_bin(std::uint8_t bin) const;
};

class RefreshPolicy {
 public:
  virtual ~RefreshPolicy() = default;

  /// Gives the policy the chance to issue one command this cycle.
  /// Returns true if it used the command slot.
  virtual bool tick(dram::Channel& chan, Cycle now) = 0;

  /// True if normal traffic to `rank` should be held back (refresh due).
  virtual bool rank_blocked(std::uint32_t rank) const = 0;

  /// The cycle at which `rank` became blocked (the due time whose REF has
  /// not issued yet), kCycleNever when the policy never blocks the rank.
  /// Read from the channel's ref-hook — which fires inside issue(Ref),
  /// before the policy re-arms the due time — to attribute the closed
  /// blocked window to queued requests (span telemetry).
  virtual Cycle blocked_since(std::uint32_t /*rank*/) const { return kCycleNever; }

  /// Flight-recorder dump of the policy's schedule state (due times,
  /// backlogs). Default: just the name.
  virtual void dump(std::ostream& os, Cycle now) const;

  /// Earliest future cycle at which this policy may want the command slot
  /// (see common/clock.hh for the contract). Called after tick(now); the
  /// conservative default degenerates the event loop to per-cycle.
  virtual Cycle next_event(Cycle now) const { return now + 1; }

  /// A self-refreshing rank is leaving self-refresh at `now` (the cells
  /// were maintained internally up to this point). Policies that track
  /// per-rank due times re-arm them here; called in every clock mode so
  /// both modes see identical schedules.
  virtual void on_rank_wake(std::uint32_t /*rank*/, Cycle /*now*/) {}

  /// Exposes policy-internal counters (issued REFs, paced row refreshes)
  /// under `prefix`. Default: none.
  virtual void register_stats(obs::StatRegistry&, const std::string& /*prefix*/) const {}

  /// Checkpoint the pacing state (due times, cursors, issue counters). The
  /// restore target is built by the same factory from the same config and
  /// profile, so only mutable schedule state travels. Implementations
  /// forward both to their one fields() (common/ckpt.hh).
  virtual void save_state(ckpt::Sink&) const {}
  virtual void load_state(ckpt::Source&) {}

  virtual std::string name() const = 0;
};

/// No refresh at all — ideal upper bound for C7.
std::unique_ptr<RefreshPolicy> make_no_refresh();

/// JEDEC-style distributed all-bank refresh: one REF per rank per tREFI,
/// staggered across ranks. `interval_scale` stretches tREFI (e.g. 1 = 64ms
/// worst-case window, 2 = 128ms) for sensitivity studies.
std::unique_ptr<RefreshPolicy> make_all_bank_refresh(const dram::DramConfig& cfg,
                                                     double interval_scale = 1.0);

/// RAIDR: row-granularity refresh driven by a retention profile. Rows in
/// bin k are refreshed every (2^k * base window). Issues RefRow commands
/// paced evenly so refresh never bursts.
///
/// `force_preall` keeps the parked-bank escape hatch that closes an idle
/// open bank standing in the head RefRow's way. Disabling it reintroduces
/// the pre-fix wedge — the refresh backlog crawls forever without ever
/// issuing — and exists only so the watchdog regression test can reproduce
/// that wedge deterministically (tests/watchdog_test.cc).
std::unique_ptr<RefreshPolicy> make_raidr(const dram::DramConfig& cfg,
                                          RetentionProfile profile,
                                          bool force_preall = true);

}  // namespace ima::mem
