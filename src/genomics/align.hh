// Sequence alignment and pre-alignment filtering — the paper's running
// motivation ("the potential of new sequencing technologies is greatly
// limited by how fast we can process genomic data" [2,3,113,119,143]).
//
//   - edit_distance / banded_edit_distance: exact DP oracles.
//   - GenasmMatcher: GenASM-DC-style bitvector approximate string matching
//     (Senol Cali et al., MICRO 2020 [113]) — Bitap extended to edit
//     distance, multi-word, one text character per step: the operation the
//     GenASM hardware pipelines in memory.
//   - sneaky_snake: universal pre-alignment filter (Alser et al.,
//     Bioinformatics 2020 [143]): cheaply rejects candidate pairs whose
//     edit distance must exceed the threshold; never rejects a true match
//     (lossless for true positives).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace ima::genomics {

/// Exact Levenshtein distance (DP, O(nm)) — the verification oracle.
std::uint32_t edit_distance(std::string_view a, std::string_view b);

/// Banded DP: exact if the distance is <= band, otherwise returns band+1.
std::uint32_t banded_edit_distance(std::string_view a, std::string_view b,
                                   std::uint32_t band);

/// GenASM-style matcher: does `pattern` match somewhere in `text` with at
/// most `max_errors` edits (substitution/insertion/deletion)?
struct MatchResult {
  bool accepted = false;
  std::uint32_t best_errors = 0;  // smallest error count that matched
  std::size_t end_pos = 0;        // text position where the best match ends
};

class GenasmMatcher {
 public:
  /// Patterns up to 64*words characters (multi-word Bitap).
  explicit GenasmMatcher(std::string_view pattern);

  MatchResult search(std::string_view text, std::uint32_t max_errors) const;

  /// Hardware cost model: the GenASM-DC pipeline processes one text
  /// character per cycle per error lane; lanes run concurrently, so a
  /// search costs ~len(text) cycles (+ pipeline fill of max_errors).
  std::uint64_t accelerator_cycles(std::size_t text_len, std::uint32_t max_errors) const {
    return text_len + max_errors + words_ * 2;
  }

 private:
  std::size_t m_ = 0;
  std::size_t words_ = 0;
  // Per-character pattern masks, bit i set iff pattern[i] == c (A,C,G,T,other).
  std::vector<std::vector<std::uint64_t>> masks_;  // [5][words]

  static std::size_t code_of(char c);
};

/// SneakySnake pre-alignment filter: returns false only if the pair's edit
/// distance provably exceeds `max_errors` (lossless for true matches).
/// `read` is compared against the same-length (plus padding) reference
/// window; the grid has 2*max_errors+1 diagonals.
bool sneaky_snake(std::string_view read, std::string_view ref, std::uint32_t max_errors);

}  // namespace ima::genomics
