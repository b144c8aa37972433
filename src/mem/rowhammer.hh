// RowHammer disturbance model and mitigation mechanisms.
//
// The paper's "bottom-up push" for intelligent memory controllers:
// technology scaling makes rows disturb their neighbours (Kim et al.,
// ISCA 2014 [104]), so the controller must track activation behaviour and
// act on it. We model:
//   - a victim model that counts disturbances per row and records a bit
//     flip when a row's accumulated disturbance crosses the RowHammer
//     threshold before it is refreshed, and
//   - three mitigations from the literature with different cost/coverage
//     trade-offs: PARA (probabilistic), sampling TRR (what DDR4 shipped,
//     defeated by many-sided patterns — TRRespass [106]), and a
//     Graphene-style Misra-Gries top-k tracker (precise).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <functional>

#include "common/rng.hh"
#include "common/types.hh"
#include "dram/command.hh"
#include "dram/config.hh"

namespace ima::obs {
class StatRegistry;
}  // namespace ima::obs

namespace ima::ckpt {
class Sink;
class Source;
}  // namespace ima::ckpt

namespace ima::mem {

/// Ground-truth disturbance bookkeeping. Rows are identified per-bank.
class HammerVictimModel {
 public:
  /// Geometry-aware constructor: victim counters are keyed by
  /// (rank, bank, row) with strides taken from `g`, so wide-bank
  /// (HBM-style, >64 banks) configurations cannot alias counters.
  HammerVictimModel(const dram::Geometry& g, std::uint64_t threshold)
      : rows_per_bank_(g.rows_per_bank()), banks_(g.banks), threshold_(threshold) {}

  /// Legacy convenience for bank-count-agnostic tests: uses a stride wide
  /// enough (2^16 banks per rank) that no real part can alias.
  HammerVictimModel(std::uint32_t rows_per_bank, std::uint64_t threshold)
      : rows_per_bank_(rows_per_bank), banks_(1u << 16), threshold_(threshold) {}

  /// Invoked when a victim row's disturbance crosses threshold — the
  /// moment a real bit flip happens. The coordinate is the *victim* row.
  /// The reliability engine taps in here to corrupt actual DataStore bits.
  using FlipSink = std::function<void(const dram::Coord& victim)>;
  void set_flip_sink(FlipSink sink) { flip_sink_ = std::move(sink); }

  /// An activation of `row` disturbs row-1 and row+1.
  void on_act(const dram::Coord& c);

  /// A targeted row refresh restores that row's charge.
  void on_row_refresh(const dram::Coord& c);

  /// One auto-refresh (REF) command: refreshes 1/8192 of the rows. After a
  /// full tREFW worth of REFs, every row has been restored.
  void on_ref_command();

  /// A full refresh window elapsed (all rows restored).
  void on_blanket_refresh();

  std::uint64_t flips() const { return flips_; }
  std::uint64_t threshold() const { return threshold_; }

  /// Checkpoint disturbance counters and window progress. The model may be
  /// shared (borrowed) by several controllers; the owner serializes it
  /// exactly once. The flip sink is rewired, not serialized.
  template <class Ar>
  void fields(Ar& ar) {
    ar.section("victim_model");
    ar(disturb_count_, flips_, refs_seen_);
  }

 private:
  // Packing derived from the geometry, not a hard-coded 64-bank / 32-bit
  // width: (rank, bank, row) stay injective for any bank count.
  std::uint64_t key(const dram::Coord& c, std::uint32_t row) const {
    return (static_cast<std::uint64_t>(c.rank) * banks_ + c.bank) * rows_per_bank_ + row;
  }
  void disturb(const dram::Coord& c, std::uint32_t row);

  std::uint32_t rows_per_bank_;
  std::uint32_t banks_;
  std::uint64_t threshold_;
  std::unordered_map<std::uint64_t, std::uint64_t> disturb_count_;
  std::uint64_t flips_ = 0;
  std::uint32_t refs_seen_ = 0;  // REF commands toward one tREFW window
  FlipSink flip_sink_;
};

/// A mitigation observes activations and requests neighbour refreshes.
class RowHammerMitigation {
 public:
  virtual ~RowHammerMitigation() = default;

  /// Called on every activation; append victim rows (bank-local coords) to
  /// refresh into `out`.
  virtual void on_act(const dram::Coord& c, Cycle now, std::vector<dram::Coord>& out) = 0;

  /// Blanket refresh resets per-window state.
  virtual void on_refresh_window() {}

  /// Mitigation-internal counters (victim refreshes requested) under
  /// `prefix`. Default: none.
  virtual void register_stats(obs::StatRegistry&, const std::string& /*prefix*/) const {}

  /// Checkpoint tracker state (samplers, Misra-Gries tables, RNG streams).
  /// Implementations forward both to their one fields() (common/ckpt.hh).
  virtual void save_state(ckpt::Sink&) const {}
  virtual void load_state(ckpt::Source&) {}

  virtual std::string name() const = 0;
};

/// PARA (Kim et al. [104]): on each activation, with probability p refresh
/// one adjacent row. Stateless; overhead = 2p extra row refreshes per ACT
/// in expectation (we refresh both neighbours with p/2 each side).
std::unique_ptr<RowHammerMitigation> make_para(double p, std::uint64_t seed = 1);

/// Sampling TRR: remembers up to `sampler_size` recently activated rows per
/// bank (random replacement); on refresh-window boundaries, refreshes the
/// neighbours of the sampled rows. Mirrors in-DRAM TRR weaknesses.
std::unique_ptr<RowHammerMitigation> make_trr_sample(std::uint32_t sampler_size,
                                                     std::uint64_t act_threshold,
                                                     std::uint64_t seed = 1);

/// Graphene (Park et al.) / Misra-Gries: exact frequent-row tracking with
/// `k` counters per bank; refreshes neighbours when a row's estimated count
/// reaches threshold/2, then resets the counter (spillover-safe).
std::unique_ptr<RowHammerMitigation> make_graphene(std::uint32_t k, std::uint64_t threshold);

}  // namespace ima::mem
