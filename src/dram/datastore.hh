// Functional contents of the DRAM array, kept separately from timing state.
//
// Rows are allocated lazily (sparse map) so that simulating a multi-GB
// address space costs memory proportional to the touched footprint only.
// The data store is what makes the PUM model *functional*: RowClone and
// Ambit operations transform actual bits, so their results can be checked
// against software oracles in tests.
//
// Sharding contract: the sparse store is partitioned per channel, and
// every accessor touches only its coordinate's partition (all row-level
// PUM operations are intra-channel by construction — PimArgs name rows
// within one bank). Concurrent access from different channels is therefore
// safe with no locking: a lazy allocation in one channel's map can never
// rehash another channel's (the pre-partition single map could, which is
// exactly the race sharded drains would have hit). Same-channel access
// stays single-threaded because a channel belongs to exactly one shard.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "dram/command.hh"
#include "dram/config.hh"

namespace ima::dram {

class DataStore {
 public:
  explicit DataStore(const Geometry& g)
      : geom_(g),
        words_per_row_(g.row_bytes() / sizeof(std::uint64_t)),
        channels_(g.channels ? g.channels : 1) {}

  /// Mutable view of a row's words; allocates (zero-filled) on first touch.
  std::vector<std::uint64_t>& row(const Coord& c) { return ensure_row(c); }

  /// Read-only access that does not allocate; absent rows read as zero.
  std::uint64_t word(const Coord& c, std::size_t word_idx) const;

  /// Line-granularity accessors used by RD/WR commands (column = line index).
  void write_line(const Coord& c, const std::uint64_t* data8);
  void read_line(const Coord& c, std::uint64_t* out8) const;

  /// Whole-row operations used by the PUM commands.
  void copy_row(const Coord& src, const Coord& dst);
  void majority3_rows(const Coord& a, const Coord& b, const Coord& c);
  void not_row(const Coord& src, const Coord& dst);
  void fill_row(const Coord& c, std::uint64_t pattern);

  std::size_t words_per_row() const { return words_per_row_; }

  /// Checkpoint every lazily-allocated row, per channel, sorted by row key
  /// (hash-map iteration order never reaches the byte stream).
  template <class Ar>
  void fields(Ar& ar) {
    ar.section("datastore");
    ar.match(std::uint64_t{channels_.size()}, "datastore channel count");
    ar.match(std::uint64_t{words_per_row_}, "datastore words per row");
    for (auto& part : channels_) ar(part);
  }

  std::size_t allocated_rows() const {
    std::size_t n = 0;
    for (const auto& m : channels_) n += m.size();
    return n;
  }

 private:
  /// Channel-local key: the channel selects the partition instead.
  std::uint64_t row_key(const Coord& c) const {
    std::uint64_t k = c.rank;
    k = k * geom_.banks + c.bank;
    k = k * geom_.rows_per_bank() + c.row;
    return k;
  }
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>& part(const Coord& c) {
    return channels_[c.channel < channels_.size() ? c.channel : 0];
  }
  const std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>& part(
      const Coord& c) const {
    return channels_[c.channel < channels_.size() ? c.channel : 0];
  }

  std::vector<std::uint64_t>& ensure_row(const Coord& c);

  Geometry geom_;
  std::size_t words_per_row_;
  // One sparse map per channel — see the sharding contract above.
  std::vector<std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>> channels_;
};

}  // namespace ima::dram
