// End-to-end reliability engine for one memory channel: fault sources,
// ECC protection, patrol scrubbing, and graceful degradation.
//
// The engine sits beside the controller and observes the same command
// stream the timing model executes:
//
//   on_act(c, now)      every row activation (ACT, RAIDR RefRow, victim
//                       refresh, scrub RefRow — Channel::record_act fires
//                       the ACT hook for all of them). Stamps the row's
//                       last-restore time and, if the row's *true*
//                       retention bin was overshot, injects decay flips
//                       first — a late refresh restores already-corrupted
//                       cells, exactly as real DRAM does.
//   on_blanket_ref(r)   all-bank REF bookkeeping: every 8192 REFs of a
//                       rank advance that rank's restore epoch.
//   on_read(c, now)     the RD serve path: applies EDEN reduced-tRCD BER
//                       flips (persisted to the DataStore, so the
//                       functional peek path observes them), then runs the
//                       configured ECC decode against stored check bits —
//                       corrects CEs in place, poisons + retires on DUE,
//                       and consults the injector's ledger to classify
//                       undetected corruption as SDC.
//   on_write(c)         WR serve and functional pokes: fresh data clears
//                       outstanding corruption and re-encodes check bits.
//   scrub_tick(now)     patrol scrubber: paced by the same closed-form
//                       integer schedule RAIDR uses (owed(now) =
//                       (now+1)*rows/period), issues a RefRow through the
//                       controller's command slot and read-correct-writes-
//                       back every line of the row. next_event() inverts
//                       the pacing formula so the skip-ahead clock jumps
//                       straight to the next owed scrub.
//
// Check bits live in a sparse side store keyed by line, maintained lazily:
// a line is encoded from its pre-corruption contents the moment a fault
// source first touches it, and re-encoded whenever the line is written.
// Lines that were never corrupted and never written carry no entry and
// decode as clean — the sparse map stays proportional to the fault
// footprint, not the address space. (Whole-row PUM writes — RowClone,
// Ambit — bypass the line-granularity hooks; composing ECC with PUM is
// documented as out of scope in DESIGN.md.)
//
// Everything is off by default (Config::enabled = false): a controller
// without an engine executes byte-identically to one built before this
// subsystem existed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "dram/channel.hh"
#include "reliability/ecc.hh"
#include "reliability/fault.hh"

namespace ima::obs {
class StatRegistry;
class TraceSink;
}  // namespace ima::obs

namespace ima::reliability {

struct Config {
  bool enabled = false;
  std::uint64_t seed = 1;

  EccKind ecc = EccKind::None;

  // --- fault sources ---
  /// HammerVictimModel threshold crossings corrupt the real victim row.
  bool hammer_flips = false;
  /// Bits flipped per crossing; they accumulate until the row is rewritten
  /// or refreshed-after-correction, which is how an unmitigated hammer
  /// eventually defeats even Chipkill.
  std::uint32_t hammer_bits_per_crossing = 1;

  /// Retention decay for rows refreshed later than their *true* bin allows.
  bool retention_faults = false;
  /// Ground-truth retention bin per channel-local row id (RAIDR demux
  /// order: ((rank*banks)+bank)*rows_per_bank + row). Bin b rows are
  /// guaranteed for retention_base_window << b cycles. Empty = no decay.
  std::vector<std::uint8_t> true_bin_of_row;
  /// 0 => refi * 8192 (the standard 64 ms window in cycles).
  Cycle retention_base_window = 0;
  /// Per-word single-bit flip probability per missed window.
  double retention_word_flip_prob = 0.01;

  /// EDEN reduced-tRCD read path: per-bit error rate applied on RD serve.
  double read_ber = 0.0;

  // --- patrol scrubber ---
  bool scrub = false;
  /// Cycles for one full sweep over every row of the channel.
  /// 0 => 8 * retention base window.
  Cycle scrub_period = 0;

  // --- ECC cost model ---
  Cycle secded_read_penalty = 1;    // decode cycles added to RD completion
  Cycle chipkill_read_penalty = 2;  // wider syndrome, deeper logic
  Cycle ecc_write_penalty = 1;      // encode cycles on the WR path
  PicoJoule ecc_energy_per_access = 20.0;

  // --- graceful degradation ---
  /// Corrected errors on one row before it is proactively retired
  /// (0 disables proactive retirement; DUEs always retire).
  std::uint64_t ce_retire_threshold = 0;
};

class Engine {
 public:
  Engine(dram::Channel& chan, const Config& cfg);

  const Config& config() const { return cfg_; }

  // --- command-stream hooks (controller) ---

  void on_act(const dram::Coord& c, Cycle now);
  void on_blanket_ref(std::uint32_t rank, Cycle now);

  struct ReadResult {
    bool poisoned = false;
    Cycle extra_latency = 0;
  };
  ReadResult on_read(const dram::Coord& c, Cycle now);

  /// WR serve path; also used (with now = 0) for functional pokes.
  void on_write(const dram::Coord& c, Cycle now);
  Cycle write_penalty() const {
    return cfg_.ecc == EccKind::None ? 0 : cfg_.ecc_write_penalty;
  }

  /// RowHammer flip sink: a victim counter crossed threshold.
  void on_hammer_flip(const dram::Coord& victim);

  // --- patrol scrubber (controller command slot) ---

  /// Issues one scrub command if one is owed and legal; true = slot used.
  bool scrub_tick(Cycle now);
  /// Earliest cycle at which scrub_tick could do work; composes with the
  /// controller's next_event for skip-ahead clocking.
  Cycle next_event(Cycle now) const;

  // --- degradation state ---

  using RetireHook = std::function<void(const dram::Coord& row)>;
  void set_retire_hook(RetireHook h) { retire_hook_ = std::move(h); }

  bool row_retired(const dram::Coord& c) const {
    return retired_.count(injector_.row_site(c)) > 0;
  }
  bool line_poisoned(const dram::Coord& c) const {
    return poisoned_.count(injector_.line_key(c)) > 0;
  }

  /// Retires a row directly (tests / external policy).
  void retire_row(const dram::Coord& row, Cycle now);

  // --- introspection / bookkeeping ---

  FaultInjector& injector() { return injector_; }
  const FaultInjector& injector() const { return injector_; }

  /// Forces check bits for a line to be tracked (encoded from the current
  /// DataStore contents). Tests use this before manual corruption.
  void ensure_encoded(const dram::Coord& line);

  struct Stats {
    std::uint64_t ce_words = 0;           // corrected errors (word/symbol grain)
    std::uint64_t due_events = 0;         // detected-uncorrectable lines
    std::uint64_t sdc_reads = 0;          // reads returning silent corruption
    std::uint64_t miscorrections = 0;     // ECC "corrected" the wrong bit
    std::uint64_t poisoned_reads = 0;     // reads of a known-poisoned line
    std::uint64_t hammer_bits = 0;
    std::uint64_t retention_bits = 0;
    std::uint64_t read_ber_bits = 0;
    std::uint64_t scrub_rows = 0;
    std::uint64_t scrub_ce = 0;
    std::uint64_t scrub_due = 0;
    std::uint64_t rows_retired = 0;

    template <class Ar>
    void fields(Ar& ar) {
      ar(ce_words, due_events, sdc_reads, miscorrections, poisoned_reads, hammer_bits,
         retention_bits, read_ber_bits, scrub_rows, scrub_ce, scrub_due, rows_retired);
    }
  };
  const Stats& stats() const { return stats_; }

  PicoJoule ecc_energy() const { return ecc_energy_; }
  /// ECC storage overhead actually tracked (bytes of check bits).
  std::uint64_t check_bytes() const;

  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const;
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Checkpoint check bits, restore epochs, degradation sets, scrub pacing,
  /// stats and the embedded fault injector. Hooks are rewired by the owner.
  template <class Ar>
  void fields(Ar& ar);

 private:
  struct LineOutcome {
    EccOutcome outcome = EccOutcome::Clean;
    std::uint32_t corrected = 0;
  };

  /// Decodes one line against stored check bits, repairing the DataStore
  /// and the ledger on corrections. No-ops for untracked lines.
  LineOutcome decode_line(const dram::Coord& line);

  void ensure_encoded_row(const dram::Coord& row);
  void encode_line(const dram::Coord& line);

  void handle_due(const dram::Coord& line, Cycle now);
  void note_ce(const dram::Coord& line, std::uint32_t corrected, Cycle now,
               bool scrubbing = false);

  Cycle retention_period(std::uint64_t row_id) const;
  std::uint64_t scrub_owed(Cycle now) const;
  dram::Coord scrub_coord(std::uint64_t cursor) const;

  dram::Channel& chan_;
  Config cfg_;
  FaultInjector injector_;
  obs::TraceSink* trace_ = nullptr;

  Cycle retention_base_ = 0;
  Cycle scrub_period_ = 0;
  std::uint64_t rows_total_ = 0;

  // Sparse check-bit store: line key -> 8 check bytes (SECDED uses all 8,
  // Chipkill the first 3).
  std::unordered_map<std::uint64_t, std::array<std::uint8_t, 8>> checks_;

  // Retention restore tracking.
  std::unordered_map<std::uint64_t, Cycle> last_restore_;  // row id -> cycle
  std::vector<Cycle> rank_epoch_;                          // blanket-REF epochs
  std::vector<std::uint64_t> rank_refs_;                   // REFs since epoch

  // Degradation.
  std::unordered_set<std::uint64_t> poisoned_;  // line keys
  std::unordered_set<std::uint64_t> retired_;   // row ids
  std::vector<dram::Coord> retired_list_;
  std::unordered_map<std::uint64_t, std::uint64_t> row_ce_;  // row id -> CEs
  RetireHook retire_hook_;

  // Scrubber.
  std::uint64_t scrub_cursor_ = 0;
  std::uint64_t scrub_issued_ = 0;

  Stats stats_;
  PicoJoule ecc_energy_ = 0;
  Cycle last_now_ = 0;  // latest command cycle seen (trace stamping)
};

}  // namespace ima::reliability
