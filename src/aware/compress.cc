#include "aware/compress.hh"

#include <array>
#include <cassert>
#include <cstring>

namespace ima::aware {

namespace {

/// Generic two-base BDI check at element width W (bytes) and delta width D:
/// every element must be within a signed D-byte delta of either the first
/// non-small element (base) or of zero (implicit base). Returns the packed
/// payload on success: [base][mask bytes][deltas].
template <typename Elem>
std::optional<std::vector<std::uint8_t>> try_base_delta(const std::uint8_t* raw,
                                                        std::uint32_t delta_bytes) {
  constexpr std::uint32_t kElems = 64 / sizeof(Elem);
  std::array<Elem, kElems> e;
  std::memcpy(e.data(), raw, 64);

  const std::int64_t dmax = (1ll << (8 * delta_bytes - 1)) - 1;
  const std::int64_t dmin = -(1ll << (8 * delta_bytes - 1));
  auto fits = [&](std::int64_t d) { return d >= dmin && d <= dmax; };

  // Pick the base: first element whose delta-to-zero does not fit.
  Elem base = 0;
  bool have_base = false;
  for (auto v : e) {
    if (!fits(static_cast<std::int64_t>(static_cast<std::make_signed_t<Elem>>(v)))) {
      base = v;
      have_base = true;
      break;
    }
  }
  if (!have_base) base = e[0];

  std::vector<std::uint8_t> payload;
  payload.resize(sizeof(Elem) + (kElems + 7) / 8 + kElems * delta_bytes);
  std::memcpy(payload.data(), &base, sizeof(Elem));
  std::uint8_t* mask = payload.data() + sizeof(Elem);
  std::memset(mask, 0, (kElems + 7) / 8);
  std::uint8_t* deltas = mask + (kElems + 7) / 8;

  for (std::uint32_t i = 0; i < kElems; ++i) {
    const auto sv = static_cast<std::int64_t>(static_cast<std::make_signed_t<Elem>>(e[i]));
    const std::int64_t d_zero = sv;
    // Modular 64-bit difference: exact whenever it fits, and never a
    // signed overflow for 8-byte elements.
    const auto d_base = static_cast<std::int64_t>(static_cast<std::uint64_t>(e[i]) -
                                                  static_cast<std::uint64_t>(base));
    std::int64_t d;
    if (fits(d_zero)) {
      d = d_zero;  // implicit zero base (mask bit stays 0)
    } else if (fits(d_base)) {
      d = d_base;
      mask[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    } else {
      return std::nullopt;
    }
    std::memcpy(deltas + static_cast<std::size_t>(i) * delta_bytes, &d, delta_bytes);
  }
  return payload;
}

template <typename Elem>
std::array<std::uint64_t, 8> decode_base_delta(const std::vector<std::uint8_t>& payload,
                                               std::uint32_t delta_bytes) {
  constexpr std::uint32_t kElems = 64 / sizeof(Elem);
  Elem base;
  std::memcpy(&base, payload.data(), sizeof(Elem));
  const std::uint8_t* mask = payload.data() + sizeof(Elem);
  const std::uint8_t* deltas = mask + (kElems + 7) / 8;

  std::array<Elem, kElems> e;
  for (std::uint32_t i = 0; i < kElems; ++i) {
    std::int64_t d = 0;
    std::memcpy(&d, deltas + static_cast<std::size_t>(i) * delta_bytes, delta_bytes);
    // Sign-extend.
    const int shift = 64 - 8 * static_cast<int>(delta_bytes);
    d = (d << shift) >> shift;
    const bool from_base = mask[i / 8] & (1u << (i % 8));
    e[i] = static_cast<Elem>((from_base ? static_cast<std::int64_t>(base) : 0) + d);
  }
  std::array<std::uint64_t, 8> out;
  std::memcpy(out.data(), e.data(), 64);
  return out;
}

}  // namespace

const char* to_string(BdiEncoding e) {
  switch (e) {
    case BdiEncoding::Zeros: return "zeros";
    case BdiEncoding::Repeat: return "repeat";
    case BdiEncoding::B8D1: return "base8-d1";
    case BdiEncoding::B8D2: return "base8-d2";
    case BdiEncoding::B8D4: return "base8-d4";
    case BdiEncoding::B4D1: return "base4-d1";
    case BdiEncoding::B4D2: return "base4-d2";
    case BdiEncoding::B2D1: return "base2-d1";
    case BdiEncoding::Uncompressed: return "uncompressed";
  }
  return "?";
}

std::uint32_t bdi_size(BdiEncoding e) {
  switch (e) {
    case BdiEncoding::Zeros: return 1;
    case BdiEncoding::Repeat: return 8;
    case BdiEncoding::B8D1: return 17;   // 8 base + 1 mask + 8x1
    case BdiEncoding::B8D2: return 25;   // 8 + 1 + 8x2
    case BdiEncoding::B8D4: return 41;   // 8 + 1 + 8x4
    case BdiEncoding::B4D1: return 22;   // 4 + 2 + 16x1
    case BdiEncoding::B4D2: return 38;   // 4 + 2 + 16x2
    case BdiEncoding::B2D1: return 38;   // 2 + 4 + 32x1
    case BdiEncoding::Uncompressed: return 64;
  }
  return 64;
}

BdiCompressed bdi_compress(Line line) {
  BdiCompressed out;

  bool all_zero = true, all_same = true;
  for (std::size_t i = 0; i < 8; ++i) {
    if (line[i] != 0) all_zero = false;
    if (line[i] != line[0]) all_same = false;
  }
  if (all_zero) {
    out.encoding = BdiEncoding::Zeros;
    return out;
  }
  if (all_same) {
    out.encoding = BdiEncoding::Repeat;
    out.payload.resize(8);
    std::memcpy(out.payload.data(), &line[0], 8);
    return out;
  }

  const auto* raw = reinterpret_cast<const std::uint8_t*>(line.data());
  struct Candidate {
    BdiEncoding enc;
    std::optional<std::vector<std::uint8_t>> payload;
  };
  // Ordered by compressed size, smallest first.
  Candidate candidates[] = {
      {BdiEncoding::B8D1, try_base_delta<std::uint64_t>(raw, 1)},
      {BdiEncoding::B4D1, try_base_delta<std::uint32_t>(raw, 1)},
      {BdiEncoding::B8D2, try_base_delta<std::uint64_t>(raw, 2)},
      {BdiEncoding::B4D2, try_base_delta<std::uint32_t>(raw, 2)},
      {BdiEncoding::B2D1, try_base_delta<std::uint16_t>(raw, 1)},
      {BdiEncoding::B8D4, try_base_delta<std::uint64_t>(raw, 4)},
  };
  for (auto& c : candidates) {
    if (c.payload) {
      out.encoding = c.enc;
      out.payload = std::move(*c.payload);
      return out;
    }
  }
  out.encoding = BdiEncoding::Uncompressed;
  out.payload.resize(64);
  std::memcpy(out.payload.data(), raw, 64);
  return out;
}

std::array<std::uint64_t, 8> bdi_decompress(const BdiCompressed& c) {
  std::array<std::uint64_t, 8> out{};
  switch (c.encoding) {
    case BdiEncoding::Zeros:
      return out;
    case BdiEncoding::Repeat: {
      std::uint64_t v;
      std::memcpy(&v, c.payload.data(), 8);
      out.fill(v);
      return out;
    }
    case BdiEncoding::B8D1: return decode_base_delta<std::uint64_t>(c.payload, 1);
    case BdiEncoding::B8D2: return decode_base_delta<std::uint64_t>(c.payload, 2);
    case BdiEncoding::B8D4: return decode_base_delta<std::uint64_t>(c.payload, 4);
    case BdiEncoding::B4D1: return decode_base_delta<std::uint32_t>(c.payload, 1);
    case BdiEncoding::B4D2: return decode_base_delta<std::uint32_t>(c.payload, 2);
    case BdiEncoding::B2D1: return decode_base_delta<std::uint16_t>(c.payload, 1);
    case BdiEncoding::Uncompressed:
      std::memcpy(out.data(), c.payload.data(), 64);
      return out;
  }
  return out;
}

std::uint32_t bdi_compressed_size(Line line) { return bdi_compress(line).size_bytes(); }

// --- FPC ---

namespace {
enum FpcPattern : std::uint8_t {
  kZero = 0,        // 32-bit zero
  kSign8 = 1,       // sign-extended 8-bit
  kSign16 = 2,      // sign-extended 16-bit
  kHighZero = 3,    // upper half zero (unsigned 16-bit)
  kRepeatByte = 4,  // one byte repeated 4x
  kLiteral = 5,     // uncompressed 32-bit
};
}  // namespace

FpcCompressed fpc_compress(Line line) {
  FpcCompressed out;
  std::array<std::uint32_t, 16> words;
  std::memcpy(words.data(), line.data(), 64);

  for (std::uint32_t w : words) {
    const auto sv = static_cast<std::int32_t>(w);
    const std::uint8_t b0 = static_cast<std::uint8_t>(w);
    if (w == 0) {
      out.payload.push_back(kZero);
    } else if (sv >= -128 && sv <= 127) {
      out.payload.push_back(kSign8);
      out.payload.push_back(b0);
    } else if (sv >= -32768 && sv <= 32767) {
      out.payload.push_back(kSign16);
      out.payload.push_back(static_cast<std::uint8_t>(w));
      out.payload.push_back(static_cast<std::uint8_t>(w >> 8));
    } else if ((w >> 16) == 0) {
      out.payload.push_back(kHighZero);
      out.payload.push_back(static_cast<std::uint8_t>(w));
      out.payload.push_back(static_cast<std::uint8_t>(w >> 8));
    } else if (b0 == static_cast<std::uint8_t>(w >> 8) &&
               b0 == static_cast<std::uint8_t>(w >> 16) &&
               b0 == static_cast<std::uint8_t>(w >> 24)) {
      out.payload.push_back(kRepeatByte);
      out.payload.push_back(b0);
    } else {
      out.payload.push_back(kLiteral);
      for (int i = 0; i < 4; ++i) out.payload.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    }
  }
  return out;
}

std::array<std::uint64_t, 8> fpc_decompress(const FpcCompressed& c) {
  std::array<std::uint32_t, 16> words{};
  std::size_t pos = 0;
  for (auto& w : words) {
    assert(pos < c.payload.size());
    const auto pattern = static_cast<FpcPattern>(c.payload[pos++]);
    switch (pattern) {
      case kZero:
        w = 0;
        break;
      case kSign8:
        w = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int8_t>(c.payload[pos])));
        pos += 1;
        break;
      case kSign16: {
        const auto v = static_cast<std::uint16_t>(c.payload[pos] | (c.payload[pos + 1] << 8));
        w = static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(v)));
        pos += 2;
        break;
      }
      case kHighZero:
        w = static_cast<std::uint32_t>(c.payload[pos] | (c.payload[pos + 1] << 8));
        pos += 2;
        break;
      case kRepeatByte: {
        const std::uint32_t b = c.payload[pos++];
        w = b | (b << 8) | (b << 16) | (b << 24);
        break;
      }
      case kLiteral:
        w = 0;
        for (int i = 0; i < 4; ++i) w |= static_cast<std::uint32_t>(c.payload[pos + i]) << (8 * i);
        pos += 4;
        break;
    }
  }
  std::array<std::uint64_t, 8> out;
  std::memcpy(out.data(), words.data(), 64);
  return out;
}

std::uint32_t fpc_compressed_size(Line line) {
  // Hardware FPC stores the line raw when "compression" would expand it.
  return std::min<std::uint32_t>(64, fpc_compress(line).size_bytes());
}

namespace {
template <typename SizeFn>
double ratio_over(std::span<const std::uint64_t> words, std::uint32_t granule, SizeFn&& fn) {
  if (words.size() < 8) return 1.0;
  std::uint64_t raw = 0, compressed = 0;
  for (std::size_t i = 0; i + 8 <= words.size(); i += 8) {
    raw += 64;
    const std::uint32_t sz = fn(Line(words.subspan(i).template first<8>()));
    compressed += ((sz + granule - 1) / granule) * granule;
  }
  return compressed ? static_cast<double>(raw) / static_cast<double>(compressed) : 1.0;
}
}  // namespace

double compression_ratio_bdi(std::span<const std::uint64_t> words, std::uint32_t granule) {
  return ratio_over(words, granule, bdi_compressed_size);
}

double compression_ratio_fpc(std::span<const std::uint64_t> words, std::uint32_t granule) {
  return ratio_over(words, granule, fpc_compressed_size);
}

}  // namespace ima::aware
