#include "dram/datastore.hh"

#include <cassert>
#include <cstring>

namespace ima::dram {

std::vector<std::uint64_t>& DataStore::ensure_row(const Coord& c) {
  auto& r = part(c)[row_key(c)];
  if (r.empty()) r.assign(words_per_row_, 0);
  return r;
}

std::uint64_t DataStore::word(const Coord& c, std::size_t word_idx) const {
  assert(word_idx < words_per_row_);
  const auto& p = part(c);
  auto it = p.find(row_key(c));
  if (it == p.end() || it->second.empty()) return 0;
  return it->second[word_idx];
}

void DataStore::write_line(const Coord& c, const std::uint64_t* data8) {
  auto& r = ensure_row(c);
  const std::size_t base = static_cast<std::size_t>(c.column) * (kLineBytes / 8);
  assert(base + 8 <= words_per_row_);
  std::memcpy(&r[base], data8, kLineBytes);
}

void DataStore::read_line(const Coord& c, std::uint64_t* out8) const {
  const auto& p = part(c);
  auto it = p.find(row_key(c));
  const std::size_t base = static_cast<std::size_t>(c.column) * (kLineBytes / 8);
  if (it == p.end() || it->second.empty()) {
    std::memset(out8, 0, kLineBytes);
    return;
  }
  assert(base + 8 <= it->second.size());
  std::memcpy(out8, &it->second[base], kLineBytes);
}

void DataStore::copy_row(const Coord& src, const Coord& dst) {
  // Row-level PUM commands are intra-channel (see the sharding contract in
  // the header); a cross-channel copy would touch two partitions at once.
  assert(src.channel == dst.channel);
  // Take the source by value first: ensure_row(dst) may rehash the map and
  // invalidate a reference into it.
  std::vector<std::uint64_t> s;
  auto& p = part(src);
  if (auto it = p.find(row_key(src)); it != p.end()) s = it->second;
  auto& d = ensure_row(dst);
  if (s.empty()) std::fill(d.begin(), d.end(), 0);
  else d = std::move(s);
}

void DataStore::majority3_rows(const Coord& ca, const Coord& cb, const Coord& cc) {
  assert(ca.channel == cb.channel && cb.channel == cc.channel);
  const auto& p = part(ca);
  std::vector<std::uint64_t> a(words_per_row_, 0), b(words_per_row_, 0);
  if (auto it = p.find(row_key(ca)); it != p.end() && !it->second.empty()) a = it->second;
  if (auto it = p.find(row_key(cb)); it != p.end() && !it->second.empty()) b = it->second;
  auto& c = ensure_row(cc);
  // MAJ(a,b,c) computed bitwise; the result overwrites all three rows, which
  // is the destructive behaviour of Ambit's triple-row activation.
  std::vector<std::uint64_t> maj(words_per_row_);
  for (std::size_t i = 0; i < words_per_row_; ++i)
    maj[i] = (a[i] & b[i]) | (b[i] & c[i]) | (a[i] & c[i]);
  ensure_row(ca) = maj;
  ensure_row(cb) = maj;
  ensure_row(cc) = std::move(maj);
}

void DataStore::not_row(const Coord& src, const Coord& dst) {
  assert(src.channel == dst.channel);
  const auto& p = part(src);
  std::vector<std::uint64_t> s(words_per_row_, 0);
  if (auto it = p.find(row_key(src)); it != p.end() && !it->second.empty()) s = it->second;
  auto& d = ensure_row(dst);
  for (std::size_t i = 0; i < words_per_row_; ++i) d[i] = ~s[i];
}

void DataStore::fill_row(const Coord& c, std::uint64_t pattern) {
  auto& r = ensure_row(c);
  std::fill(r.begin(), r.end(), pattern);
}

}  // namespace ima::dram
