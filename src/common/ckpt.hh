// Checkpoint serialization: a versioned, checksummed binary snapshot
// format shared by every simulator layer, and the one archive API every
// component serializes itself through.
//
// Design rules (see DESIGN.md "Checkpoint/restore"):
//  - One body per component. A checkpointed component defines
//      template <class Ar> void fields(Ar& ar);
//    and both archives run it: Sink writes each field, Source reads it back
//    in the same order, so a save/load asymmetry cannot be written. The
//    polymorphic interfaces (Scheduler, RefreshPolicy, RowHammerMitigation,
//    Prefetcher, AccessStream) keep a virtual save_state/load_state pair
//    whose implementations only forward to their fields().
//  - Every field travels at the width of its C++ type (enums at their
//    underlying width, bool as one byte, containers behind a u64 length),
//    so the wire layout is the field list itself.
//  - Header-only and std-only so any layer (common through sim) can
//    serialize itself without link-order or include-cycle concerns.
//  - Little-endian byte order written explicitly, so a checkpoint is
//    portable across hosts.
//  - Doubles travel as their IEEE-754 bit pattern (bit_cast to u64), so a
//    restored accumulator is bit-identical, not round-tripped through text.
//  - The whole payload is guarded by one CRC-64 verified before any
//    component state is read.
//  - restore() runs the image through fields() twice: a verifying pass that
//    assigns nothing but checks every section, config fingerprint and
//    container length, then the real load. A bad image therefore throws a
//    typed CheckpointError before the target changes: never a half-restore.
//  - Every length read from an image is bounded by the bytes left in the
//    payload before anything is allocated (ErrorKind::Format otherwise).
//  - Unordered containers are always written sorted by key so the same
//    state produces the same bytes regardless of hash-table iteration
//    order (required for the byte-identical restore guarantee).
//  - Section markers name each component's region; a marker mismatch on
//    load means writer/reader drift and fails fast with ErrorKind::Format.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ima::ckpt {

/// Current checkpoint format version. Bump on any layout change; restore
/// refuses mismatched versions rather than guessing.
inline constexpr std::uint32_t kVersion = 1;

/// Leading magic: identifies a file as an IMA checkpoint before anything
/// else is trusted.
inline constexpr char kMagic[8] = {'I', 'M', 'A', 'C', 'K', 'P', 'T', '\n'};

enum class ErrorKind : std::uint8_t {
  Io,        // file missing / unreadable / unwritable
  Magic,     // not a checkpoint file at all
  Version,   // checkpoint from an incompatible format version
  Checksum,  // payload corrupted (truncation, bit flip)
  Config,    // checkpoint is valid but for a differently-configured system
  Format,    // section/stream structure mismatch, or a length past the end
  State,     // system not in a checkpointable state (e.g. not quiescent)
};

inline const char* to_string(ErrorKind k) {
  switch (k) {
    case ErrorKind::Io: return "io";
    case ErrorKind::Magic: return "magic";
    case ErrorKind::Version: return "version";
    case ErrorKind::Checksum: return "checksum";
    case ErrorKind::Config: return "config";
    case ErrorKind::Format: return "format";
    case ErrorKind::State: return "state";
  }
  return "?";
}

/// Every checkpoint failure is this one typed exception; kind() says which
/// contract was violated. restore() throws before mutating any target
/// state, so catching it leaves the system exactly as constructed.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(ErrorKind kind, const std::string& what)
      : std::runtime_error(std::string("checkpoint ") + to_string(kind) + " error: " + what),
        kind_(kind) {}
  ErrorKind kind() const { return kind_; }

 private:
  ErrorKind kind_;
};

/// CRC-64/XZ (ECMA-182 polynomial, reflected), table-driven.
inline std::uint64_t crc64(const std::uint8_t* data, std::size_t n, std::uint64_t crc = 0) {
  static const auto table = [] {
    std::array<std::uint64_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint64_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0xC96C5795D7870F42ull : 0);
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

// ---- field shapes ---------------------------------------------------------

namespace detail {

template <class T>
struct is_std_array : std::false_type {};
template <class T, std::size_t N>
struct is_std_array<std::array<T, N>> : std::true_type {};

template <class T>
struct is_pair : std::false_type {};
template <class A, class B>
struct is_pair<std::pair<A, B>> : std::true_type {};

template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

/// Fixed-extent array: elements only, no length on the wire.
template <class T>
concept Array = std::is_array_v<T> || is_std_array<T>::value;

template <class T>
concept Map = requires { typename T::key_type; typename T::mapped_type; };

template <class T>
concept Set = requires { typename T::key_type; } && !Map<T>;

/// Growable sequence (vector, deque, RingQueue): u64 length, then elements.
template <class T>
concept Sequence = !std::is_same_v<T, std::string> && requires(T& c, const T& cc) {
  cc.size();
  cc.at(0);
  c.clear();
  c.push_back(cc.at(0));
};

template <Sequence T>
using elem_t = std::remove_cvref_t<decltype(std::declval<const T&>().at(0))>;

/// Fewest payload bytes one value of T occupies; bounds a container length
/// read from an image before anything is allocated for it. Components
/// count as one byte: every fields() body writes at least one field.
template <class T>
constexpr std::size_t wire_min() {
  if constexpr (Scalar<T>) {
    return sizeof(T);
  } else if constexpr (std::is_array_v<T>) {
    return std::extent_v<T> * wire_min<std::remove_extent_t<T>>();
  } else if constexpr (is_std_array<T>::value) {
    return std::tuple_size_v<T> * wire_min<typename T::value_type>();
  } else if constexpr (is_pair<T>::value) {
    return wire_min<typename T::first_type>() + wire_min<typename T::second_type>();
  } else if constexpr (std::is_same_v<T, std::string> || Map<T> || Set<T> || Sequence<T>) {
    return 8;
  } else {
    return 1;
  }
}

template <class T>
std::uint64_t bits(T v) {
  if constexpr (std::is_floating_point_v<T>) return std::bit_cast<std::uint64_t>(v);
  else return static_cast<std::uint64_t>(v);
}

}  // namespace detail

// ---- archives -------------------------------------------------------------
//
// Sink and Source share these verbs, so one fields() body serves both:
//   ar(a, b, ...)          each field in turn (scalars, enums, strings,
//                          arrays, pairs, sequences, sorted unordered maps
//                          and sets, nested components, polymorphic
//                          interfaces through their virtual pair)
//   ar.match(v, what)      config fingerprint: Sink writes v, Source throws
//                          ErrorKind::Config unless the image holds v
//   ar.fixed(c, what)      config-sized container: its saved length is a
//                          fingerprint, its elements load in place
//   ar.sparse(c, what)     config-sized counter vector written as its
//                          non-zero (index, value) pairs
//   ar.section(name)       named region marker
//   ar.fail(kind, what)    throw a typed CheckpointError
//   Ar::loading            true for Source: gates rebuilds of derived state

/// Append-only byte buffer with typed little-endian writers.
class Sink {
 public:
  static constexpr bool loading = false;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), c, c + n);
  }

  /// Begin a named region. Source::section() verifies the same name in the
  /// same order, so writer/reader drift fails fast instead of misparsing.
  void section(const char* name) {
    u32(0x53454354u);  // 'SECT'
    str(name);
  }

  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }

  template <class T>
  void match(const T& v, const char*) {
    put(v);
  }

  template <class C>
  void fixed(const C& c, const char*) {
    u64(c.size());
    for (const auto& e : c) put(e);
  }

  template <class C>
  void sparse(const C& c, const char*) {
    u64(c.size());
    std::uint64_t nonzero = 0;
    for (const auto& e : c)
      if (e) ++nonzero;
    u64(nonzero);
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (!c[i]) continue;
      u64(i);
      put(c[i]);
    }
  }

  [[noreturn]] void fail(ErrorKind k, const std::string& what) const { throw CheckpointError(k, what); }

  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <class T>
  void put(const T& v) {
    using namespace detail;
    if constexpr (std::is_same_v<T, bool>) {
      b(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      static_assert(sizeof(T) == 8, "doubles only");
      f64(v);
    } else if constexpr (Scalar<T>) {
      le(static_cast<std::uint64_t>(v), sizeof(T));
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(v);
    } else if constexpr (Array<T>) {
      for (const auto& e : v) put(e);
    } else if constexpr (is_pair<T>::value) {
      put(v.first);
      put(v.second);
    } else if constexpr (Map<T>) {
      static_assert(std::is_integral_v<typename T::key_type>);
      std::vector<const typename T::value_type*> kv;
      kv.reserve(v.size());
      for (const auto& e : v) kv.push_back(&e);
      std::sort(kv.begin(), kv.end(), [](const auto* a, const auto* b) { return a->first < b->first; });
      u64(kv.size());
      for (const auto* e : kv) {
        u64(static_cast<std::uint64_t>(e->first));
        put(e->second);
      }
    } else if constexpr (Set<T>) {
      static_assert(std::is_integral_v<typename T::key_type>);
      std::vector<std::uint64_t> keys(v.begin(), v.end());
      std::sort(keys.begin(), keys.end());
      u64(keys.size());
      for (std::uint64_t k : keys) u64(k);
    } else if constexpr (Sequence<T>) {
      u64(v.size());
      if constexpr (requires { v.begin(); }) {
        for (const auto& e : v) put(e);
      } else {
        for (std::size_t i = 0; i < v.size(); ++i) put(v.at(i));
      }
    } else if constexpr (requires(T& t) { t.fields(*this); }) {
      const_cast<T&>(v).fields(*this);  // a Sink only reads the fields
    } else {
      v.save_state(*this);
    }
  }

  void le(std::uint64_t v, unsigned n) {
    for (unsigned i = 0; i < n; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> buf_;
};

/// Verifying reader over a sealed payload. Any structural surprise —
/// running off the end, a wrong section marker, a length longer than the
/// bytes left — throws ErrorKind::Format; a failed match() throws
/// ErrorKind::Config. A verifying Source reads and checks everything but
/// assigns nothing.
class Source {
 public:
  static constexpr bool loading = true;

  Source(const std::uint8_t* p, std::size_t n, bool verifying = false)
      : p_(p), n_(n), verifying_(verifying) {}
  explicit Source(const std::vector<std::uint8_t>& v, bool verifying = false)
      : Source(v.data(), v.size(), verifying) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool b() { return u8() != 0; }

  std::string str() {
    const std::uint64_t n = u64();
    if (n > remaining()) fail(ErrorKind::Format, "string length past end of payload");
    std::string s(reinterpret_cast<const char*>(p_ + pos_), static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  void section(const char* name) {
    if (u32() != 0x53454354u)
      fail(ErrorKind::Format, std::string("expected section marker for '") + name + "'");
    const std::string got = str();
    if (got != name)
      fail(ErrorKind::Format,
           std::string("section mismatch: expected '") + name + "', found '" + got + "'");
  }

  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }

  /// Config fingerprint: the saved value must equal what the freshly
  /// constructed target derives from its own configuration.
  template <class T>
  void match(const T& expect, const char* what) {
    if constexpr (std::is_same_v<T, std::string>) {
      const std::string got = str();
      if (got != expect)
        fail(ErrorKind::Config,
             std::string(what) + ": checkpoint has '" + got + "', target expects '" + expect + "'");
    } else {
      const T got = scalar<T>();
      if (detail::bits(got) != detail::bits(expect))
        fail(ErrorKind::Config, std::string(what) + ": checkpoint has " + std::to_string(got) +
                                    ", target expects " + std::to_string(expect));
    }
  }

  template <class C>
  void fixed(C& c, const char* what) {
    match(std::uint64_t{c.size()}, what);
    for (auto& e : c) get(e);
  }

  template <class C>
  void sparse(C& c, const char* what) {
    using V = typename C::value_type;
    match(std::uint64_t{c.size()}, what);
    const std::uint64_t n = length(8 + sizeof(V));
    if (!verifying_) std::fill(c.begin(), c.end(), V{});
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t idx = u64();
      if (idx >= c.size()) fail(ErrorKind::Format, std::string(what) + ": index out of range");
      const V val = scalar<V>();
      if (!verifying_) c[static_cast<std::size_t>(idx)] = val;
    }
  }

  /// True during restore()'s checking pass: nothing may be assigned.
  bool verifying() const { return verifying_; }
  std::size_t remaining() const { return n_ - pos_; }
  bool done() const { return pos_ == n_; }

  [[noreturn]] void fail(ErrorKind k, const std::string& what) const { throw CheckpointError(k, what); }

 private:
  template <class T>
  T scalar() {
    if constexpr (std::is_same_v<T, bool>) return u8() != 0;
    else if constexpr (std::is_floating_point_v<T>) return f64();
    else return static_cast<T>(le(sizeof(T)));
  }

  /// A container length, bounded by what the rest of the payload can hold.
  std::uint64_t length(std::size_t min_each) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_each)
      fail(ErrorKind::Format, "container length " + std::to_string(n) + " past end of payload");
    return n;
  }

  template <class T>
  void get(T& v) {
    using namespace detail;
    if constexpr (Scalar<T>) {
      const T x = scalar<T>();
      if (!verifying_) v = x;
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::string x = str();
      if (!verifying_) v = std::move(x);
    } else if constexpr (Array<T>) {
      for (auto& e : v) get(e);
    } else if constexpr (is_pair<T>::value) {
      get(v.first);
      get(v.second);
    } else if constexpr (Map<T>) {
      using K = typename T::key_type;
      using V = typename T::mapped_type;
      const std::uint64_t n = length(8 + wire_min<V>());
      if (!verifying_) {
        v.clear();
        v.reserve(static_cast<std::size_t>(n));
      }
      for (std::uint64_t i = 0; i < n; ++i) {
        const K k = static_cast<K>(u64());
        V val{};
        get(val);
        if (!verifying_) v.emplace(k, std::move(val));
      }
    } else if constexpr (Set<T>) {
      using K = typename T::key_type;
      const std::uint64_t n = length(8);
      if (verifying_) {
        pos_ += static_cast<std::size_t>(n) * 8;
        return;
      }
      v.clear();
      v.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) v.insert(static_cast<K>(u64()));
    } else if constexpr (Sequence<T>) {
      using E = elem_t<T>;
      const std::uint64_t n = length(wire_min<E>());
      if (verifying_) {
        if constexpr (Scalar<E>) {
          pos_ += static_cast<std::size_t>(n) * sizeof(E);
        } else {
          E scratch{};
          for (std::uint64_t i = 0; i < n; ++i) get(scratch);
        }
        return;
      }
      v.clear();
      if constexpr (requires { v.reserve(std::size_t{}); }) v.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        E e{};
        get(e);
        v.push_back(std::move(e));
      }
    } else if constexpr (requires { v.fields(*this); }) {
      v.fields(*this);
    } else {
      v.load_state(*this);
    }
  }

  std::uint64_t le(unsigned n) {
    if (n > remaining()) fail(ErrorKind::Format, "read past end of payload");
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(p_[pos_ + i]) << (8 * i);
    pos_ += n;
    return v;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool verifying_;
};

// ---- sealed blob ----------------------------------------------------------

/// A sealed checkpoint image: magic + version + payload length + CRC-64 +
/// payload. open() validates everything before handing out the payload, so
/// a caller that parses the returned bytes can never be feeding off a
/// corrupt or foreign file.
struct Blob {
  std::uint32_t version = kVersion;
  std::vector<std::uint8_t> payload;
};

inline std::vector<std::uint8_t> seal(const Blob& b) {
  Sink head;
  head.bytes(kMagic, sizeof kMagic);
  head.u32(b.version);
  head.u64(b.payload.size());
  head.u64(crc64(b.payload.data(), b.payload.size()));
  std::vector<std::uint8_t> out = head.take();
  out.insert(out.end(), b.payload.begin(), b.payload.end());
  return out;
}

inline Blob open(const std::uint8_t* p, std::size_t n) {
  constexpr std::size_t kHeader = sizeof(kMagic) + 4 + 8 + 8;
  if (n < kHeader) throw CheckpointError(ErrorKind::Magic, "file shorter than checkpoint header");
  if (std::memcmp(p, kMagic, sizeof kMagic) != 0)
    throw CheckpointError(ErrorKind::Magic, "bad magic: not a checkpoint file");
  Source head(p + sizeof(kMagic), kHeader - sizeof(kMagic));
  Blob b;
  b.version = head.u32();
  if (b.version != kVersion)
    throw CheckpointError(ErrorKind::Version, "format version " + std::to_string(b.version) +
                                                  ", this build reads version " +
                                                  std::to_string(kVersion));
  const std::uint64_t len = head.u64();
  const std::uint64_t want_crc = head.u64();
  if (len != n - kHeader)
    throw CheckpointError(ErrorKind::Checksum, "payload length mismatch (truncated or padded)");
  b.payload.assign(p + kHeader, p + n);
  const std::uint64_t got_crc = crc64(b.payload.data(), b.payload.size());
  if (got_crc != want_crc)
    throw CheckpointError(ErrorKind::Checksum, "payload CRC mismatch (corrupted checkpoint)");
  return b;
}

inline Blob open(const std::vector<std::uint8_t>& bytes) { return open(bytes.data(), bytes.size()); }

// ---- file I/O -------------------------------------------------------------

/// Write atomically: stage to `<path>.tmp`, then rename over the target, so
/// a crash mid-write never leaves a plausible-but-truncated checkpoint at
/// the final path.
inline void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw CheckpointError(ErrorKind::Io, "cannot open for write: " + tmp);
  const std::size_t wrote = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (wrote != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw CheckpointError(ErrorKind::Io, "short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError(ErrorKind::Io, "cannot rename into place: " + path);
  }
}

inline std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw CheckpointError(ErrorKind::Io, "cannot open for read: " + path);
  std::fseek(f, 0, SEEK_END);
  const long sz = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(sz > 0 ? static_cast<std::size_t>(sz) : 0);
  const std::size_t got = bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size()) throw CheckpointError(ErrorKind::Io, "short read: " + path);
  return bytes;
}

// ---- the checkpoint API ---------------------------------------------------

/// In-memory image of a quiescent component (the warm-start form: one blob
/// shared by every sweep job restores without touching the filesystem).
/// Throws ErrorKind::State when the component is not checkpointable.
template <class T>
Blob capture(const T& component) {
  Sink sink;
  sink(component);
  Blob blob;
  blob.payload = sink.take();
  return blob;
}

/// Loads `target` (freshly constructed, identical configuration) from an
/// image made by capture(). The whole image is checked first and loaded
/// second, so any CheckpointError leaves `target` untouched.
template <class T>
void restore(T& target, const Blob& blob) {
  for (const bool verifying : {true, false}) {
    Source src(blob.payload, verifying);
    src(target);
    if (!src.done()) src.fail(ErrorKind::Format, "trailing bytes after checkpoint state");
  }
}

/// File forms: sealed (magic + version + CRC-64), written atomically.
template <class T>
void save(const T& component, const std::string& path) {
  write_file(path, seal(capture(component)));
}

template <class T>
void restore(T& target, const std::string& path) {
  restore(target, open(read_file(path)));
}

}  // namespace ima::ckpt

/// Explicitly instantiates T::fields for both archives, for components whose
/// fields() is defined in a .cc file.
#define IMA_CKPT_FIELDS(T)                          \
  template void T::fields(::ima::ckpt::Sink&);      \
  template void T::fields(::ima::ckpt::Source&)
