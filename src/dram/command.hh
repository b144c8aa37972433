// DRAM command set, including the processing-using-memory extensions the
// paper's data-centric principle builds on (RowClone FPM, LISA, Ambit AAP
// and triple-row activation).
#pragma once

#include <cstdint>

#include "common/types.hh"

namespace ima::dram {

enum class Cmd : std::uint8_t {
  Act,        // activate a row into the row buffer
  Pre,        // precharge one bank
  PreAll,     // precharge all banks in a rank
  Rd,         // read one column (64B line)
  Wr,         // write one column
  Ref,        // all-bank auto refresh (per rank)
  RefRow,     // row-granularity refresh (ACT+PRE internally; used by RAIDR)
  // --- PUM extensions ---
  AapFpm,     // ACT(src)->ACT(dst)->PRE within one subarray: RowClone-FPM /
              // Ambit row-to-row copy primitive
  LisaRbm,    // LISA row-buffer movement to an adjacent subarray
  Tra,        // Ambit triple-row activation (bulk majority)
};

constexpr const char* to_string(Cmd c) {
  switch (c) {
    case Cmd::Act: return "ACT";
    case Cmd::Pre: return "PRE";
    case Cmd::PreAll: return "PREA";
    case Cmd::Rd: return "RD";
    case Cmd::Wr: return "WR";
    case Cmd::Ref: return "REF";
    case Cmd::RefRow: return "REFROW";
    case Cmd::AapFpm: return "AAP";
    case Cmd::LisaRbm: return "LISA";
    case Cmd::Tra: return "TRA";
  }
  return "?";
}

inline constexpr std::uint32_t kNumCmds = 10;

/// Fully decomposed DRAM coordinates of one access.
struct Coord {
  std::uint32_t channel = 0;
  std::uint32_t rank = 0;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;      // bank-local row index (subarray implied)
  std::uint32_t column = 0;   // cache-line index within the row

  bool same_bank(const Coord& o) const {
    return channel == o.channel && rank == o.rank && bank == o.bank;
  }

  bool operator==(const Coord&) const = default;

  template <class Ar>
  void fields(Ar& ar) {
    ar(channel, rank, bank, row, column);
  }
};

}  // namespace ima::dram
