// DataStore-attached fault injector with deterministic per-site RNG streams.
//
// Every injection site (a DRAM row) owns an independent random stream: the
// generator for one event is constructed statelessly from
// (base_seed, site_key, per-site event counter), so the bits that flip do
// not depend on the order in which *other* sites fault, on sweep-engine
// worker count, or on interleaving with unrelated RNG consumers. That is
// the property that keeps bench_c24 byte-identical at any IMA_JOBS width.
//
// The injector also keeps a corruption *ledger*: the exact set of
// outstanding flipped bits per line, maintained by XOR-toggling (an
// injection adds a bit, a correction of that same bit removes it, an ECC
// miscorrection that flips a *different* bit adds a new entry). The ledger
// is the software oracle the end-to-end layer uses to classify reads as
// silent data corruption — it never participates in ECC decoding itself.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "dram/command.hh"
#include "dram/config.hh"
#include "dram/datastore.hh"

namespace ima::reliability {

class FaultInjector {
 public:
  FaultInjector(dram::DataStore* data, const dram::Geometry& g, std::uint64_t seed)
      : data_(data), geom_(g), seed_(seed) {}

  void set_seed(std::uint64_t seed) { seed_ = seed; }

  /// RowHammer crossing: flips `bits` uniformly random bits across the
  /// victim row. Returns the number of bits flipped.
  std::uint32_t hammer_flip(const dram::Coord& row, std::uint32_t bits);

  /// Retention lapse: each word of the row loses one random bit with
  /// probability 1-(1-word_prob)^windows (windows = missed refresh windows
  /// beyond the row's guaranteed retention time).
  std::uint32_t decay_row(const dram::Coord& row, std::uint64_t windows, double word_prob);

  /// Reduced-tRCD read (EDEN): BER-driven flips across one line. Each of
  /// the 8 words independently loses one bit with probability
  /// ~1-(1-ber)^64 (the per-word aggregate of a per-bit error rate).
  std::uint32_t corrupt_line(const dram::Coord& line, double ber);

  /// Direct injection of exactly `bits` distinct random bits into one line
  /// (tests and smoke phases that need deterministic error weights).
  std::uint32_t corrupt_line_bits(const dram::Coord& line, std::uint32_t bits);

  /// Direct injection of exactly `bits` distinct random bits into one word
  /// of a line. Targeted error weights: two bits in the same word defeat
  /// SECDED deterministically, where corrupt_line_bits could scatter them
  /// across words and have each corrected independently.
  std::uint32_t corrupt_word_bits(const dram::Coord& line, std::uint32_t word_in_line,
                                  std::uint32_t bits);

  // --- corruption ledger (oracle) ---

  /// Outstanding flipped bits on a line; 0 means the stored line matches
  /// what a fault-free memory would hold.
  std::uint32_t pending_bits(std::uint64_t line_key) const {
    auto it = ledger_.find(line_key);
    return it == ledger_.end() ? 0u : static_cast<std::uint32_t>(it->second.size());
  }

  /// ECC repaired (word_in_line, bit): toggle it out of the ledger. If the
  /// "repair" flipped a bit that was never corrupted, it toggles *in* — a
  /// miscorrection now tracked as outstanding corruption.
  void note_correction(std::uint64_t line_key, std::uint32_t word_in_line, std::uint32_t bit) {
    toggle(line_key, word_in_line, bit);
  }

  /// Line overwritten with fresh data: outstanding corruption is gone.
  void clear_line(std::uint64_t line_key) { ledger_.erase(line_key); }

  std::uint64_t line_key(const dram::Coord& c) const {
    return row_site(c) * geom_.columns + c.column;
  }
  /// Site key for a row (also the per-site RNG stream identity).
  std::uint64_t row_site(const dram::Coord& c) const {
    std::uint64_t k = c.channel;
    k = k * geom_.ranks + c.rank;
    k = k * geom_.banks + c.bank;
    return k * geom_.rows_per_bank() + c.row;
  }

  std::uint64_t total_bits_injected() const { return total_bits_; }
  std::size_t corrupt_lines() const { return ledger_.size(); }

  /// Checkpoint the per-site nonces and the corruption ledger. The per-site
  /// streams themselves are stateless (derived from seed/site/nonce), so
  /// restoring the nonces restores the exact future flip sequence.
  template <class Ar>
  void fields(Ar& ar) {
    ar.section("fault_injector");
    ar.match(seed_, "fault injector seed");
    ar(total_bits_, nonce_, ledger_);
  }

 private:
  /// Stateless per-event stream: mixes (seed, site, site-local nonce).
  Rng stream(std::uint64_t site);

  void toggle(std::uint64_t line_key, std::uint32_t word_in_line, std::uint32_t bit);

  /// Flips one physical bit (word index is row-relative) and ledgers it.
  void flip(const dram::Coord& row, std::uint32_t word_idx, std::uint32_t bit);

  dram::DataStore* data_;
  dram::Geometry geom_;
  std::uint64_t seed_;
  std::uint64_t total_bits_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> nonce_;  // site -> events
  // line_key -> packed (word_in_line << 6 | bit) outstanding flips
  std::unordered_map<std::uint64_t, std::vector<std::uint16_t>> ledger_;
};

}  // namespace ima::reliability
