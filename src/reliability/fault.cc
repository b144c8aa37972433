#include "reliability/fault.hh"

#include <algorithm>
#include <cmath>

namespace ima::reliability {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Rng FaultInjector::stream(std::uint64_t site) {
  const std::uint64_t nonce = nonce_[site]++;
  return Rng(splitmix64(seed_ ^ splitmix64(site ^ splitmix64(nonce))));
}

void FaultInjector::toggle(std::uint64_t line_key, std::uint32_t word_in_line,
                           std::uint32_t bit) {
  const std::uint16_t packed = static_cast<std::uint16_t>((word_in_line << 6) | bit);
  auto& v = ledger_[line_key];
  auto it = std::find(v.begin(), v.end(), packed);
  if (it != v.end()) {
    *it = v.back();
    v.pop_back();
    if (v.empty()) ledger_.erase(line_key);
  } else {
    v.push_back(packed);
  }
}

void FaultInjector::flip(const dram::Coord& row, std::uint32_t word_idx, std::uint32_t bit) {
  auto& words = data_->row(row);
  words[word_idx] ^= (std::uint64_t{1} << bit);
  dram::Coord line = row;
  line.column = word_idx / 8;
  toggle(line_key(line), word_idx % 8, bit);
  ++total_bits_;
}

std::uint32_t FaultInjector::hammer_flip(const dram::Coord& row, std::uint32_t bits) {
  if (data_ == nullptr || bits == 0) return 0;
  Rng rng = stream(row_site(row));
  const std::uint32_t words = static_cast<std::uint32_t>(data_->words_per_row());
  for (std::uint32_t b = 0; b < bits; ++b) {
    flip(row, static_cast<std::uint32_t>(rng.next_below(words)),
         static_cast<std::uint32_t>(rng.next_below(64)));
  }
  return bits;
}

std::uint32_t FaultInjector::decay_row(const dram::Coord& row, std::uint64_t windows,
                                       double word_prob) {
  if (data_ == nullptr || windows == 0 || word_prob <= 0.0) return 0;
  Rng rng = stream(row_site(row));
  const double p = 1.0 - std::pow(1.0 - word_prob, static_cast<double>(windows));
  const std::uint32_t words = static_cast<std::uint32_t>(data_->words_per_row());
  std::uint32_t flipped = 0;
  for (std::uint32_t w = 0; w < words; ++w) {
    if (!rng.chance(p)) continue;
    flip(row, w, static_cast<std::uint32_t>(rng.next_below(64)));
    ++flipped;
  }
  return flipped;
}

std::uint32_t FaultInjector::corrupt_line(const dram::Coord& line, double ber) {
  if (data_ == nullptr || ber <= 0.0) return 0;
  Rng rng = stream(row_site(line));
  const double p = 1.0 - std::pow(1.0 - ber, 64.0);
  std::uint32_t flipped = 0;
  for (std::uint32_t w = 0; w < 8; ++w) {
    if (!rng.chance(p)) continue;
    flip(line, line.column * 8 + w, static_cast<std::uint32_t>(rng.next_below(64)));
    ++flipped;
  }
  return flipped;
}

std::uint32_t FaultInjector::corrupt_line_bits(const dram::Coord& line, std::uint32_t bits) {
  if (data_ == nullptr || bits == 0) return 0;
  Rng rng = stream(row_site(line));
  std::vector<std::uint16_t> chosen;
  std::uint32_t flipped = 0;
  while (flipped < bits && chosen.size() < 512) {
    const std::uint32_t w = static_cast<std::uint32_t>(rng.next_below(8));
    const std::uint32_t bit = static_cast<std::uint32_t>(rng.next_below(64));
    const std::uint16_t packed = static_cast<std::uint16_t>((w << 6) | bit);
    if (std::find(chosen.begin(), chosen.end(), packed) != chosen.end()) continue;
    chosen.push_back(packed);
    flip(line, line.column * 8 + w, bit);
    ++flipped;
  }
  return flipped;
}

std::uint32_t FaultInjector::corrupt_word_bits(const dram::Coord& line,
                                               std::uint32_t word_in_line, std::uint32_t bits) {
  if (data_ == nullptr || bits == 0 || word_in_line >= 8) return 0;
  Rng rng = stream(row_site(line));
  std::vector<std::uint32_t> chosen;
  std::uint32_t flipped = 0;
  while (flipped < bits && chosen.size() < 64) {
    const std::uint32_t bit = static_cast<std::uint32_t>(rng.next_below(64));
    if (std::find(chosen.begin(), chosen.end(), bit) != chosen.end()) continue;
    chosen.push_back(bit);
    flip(line, line.column * 8 + word_in_line, bit);
    ++flipped;
  }
  return flipped;
}

}  // namespace ima::reliability
