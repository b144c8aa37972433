#include "workloads/stream.hh"

#include <cassert>
#include <numeric>

#include "common/ckpt.hh"

namespace ima::workloads {

namespace {

class StreamingStream final : public AccessStream {
 public:
  StreamingStream(const StreamParams& p, std::uint32_t stride)
      : p_(p), stride_(stride), rng_(p.seed) {}

  TraceEntry next() override {
    TraceEntry e;
    e.compute = p_.compute_per_access;
    e.addr = p_.base + offset_;
    e.type = rng_.chance(p_.write_fraction) ? AccessType::Write : AccessType::Read;
    e.pc = 0x1000;
    offset_ += stride_;
    if (offset_ >= p_.footprint) offset_ = 0;
    return e;
  }

  std::string name() const override { return "streaming"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(offset_, rng_);
  }

 private:
  StreamParams p_;
  std::uint32_t stride_;
  std::uint64_t offset_ = 0;
  Rng rng_;
};

class RandomStream final : public AccessStream {
 public:
  explicit RandomStream(const StreamParams& p) : p_(p), rng_(p.seed) {}

  TraceEntry next() override {
    TraceEntry e;
    e.compute = p_.compute_per_access;
    e.addr = p_.base + line_base(rng_.next_below(p_.footprint));
    e.type = rng_.chance(p_.write_fraction) ? AccessType::Write : AccessType::Read;
    e.pc = 0x2000 + (rng_.next() & 0xF) * 8;  // a few distinct PCs
    return e;
  }

  std::string name() const override { return "random"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(rng_);
  }

 private:
  StreamParams p_;
  Rng rng_;
};

class ZipfStream final : public AccessStream {
 public:
  ZipfStream(const StreamParams& p, double theta)
      : p_(p), zipf_(p.footprint / kLineBytes, theta, p.seed), rng_(p.seed ^ 0xABCD) {}

  TraceEntry next() override {
    TraceEntry e;
    e.compute = p_.compute_per_access;
    // Scramble the rank ordering so hot lines spread over banks.
    const std::uint64_t line = zipf_.next() * 0x9E3779B97F4A7C15ull % (p_.footprint / kLineBytes);
    e.addr = p_.base + line * kLineBytes;
    e.type = rng_.chance(p_.write_fraction) ? AccessType::Write : AccessType::Read;
    e.pc = 0x3000;
    return e;
  }

  std::string name() const override { return "zipf"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(zipf_, rng_);
  }

 private:
  StreamParams p_;
  ZipfGenerator zipf_;
  Rng rng_;
};

class RowLocalStream final : public AccessStream {
 public:
  RowLocalStream(const StreamParams& p, std::uint32_t burst, std::uint64_t region)
      : p_(p), burst_(burst), region_(region), rng_(p.seed) {
    jump();
  }

  TraceEntry next() override {
    TraceEntry e;
    e.compute = p_.compute_per_access;
    e.addr = region_base_ + (in_region_ % region_);
    e.type = rng_.chance(p_.write_fraction) ? AccessType::Write : AccessType::Read;
    e.pc = 0x4000;
    in_region_ += kLineBytes;
    if (++count_ >= burst_) jump();
    return e;
  }

  std::string name() const override { return "row-local"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(rng_, region_base_, in_region_, count_);
  }

 private:
  void jump() {
    const std::uint64_t regions = p_.footprint / region_;
    region_base_ = p_.base + rng_.next_below(regions ? regions : 1) * region_;
    in_region_ = 0;
    count_ = 0;
  }

  StreamParams p_;
  std::uint32_t burst_;
  std::uint64_t region_;
  Rng rng_;
  Addr region_base_ = 0;
  std::uint64_t in_region_ = 0;
  std::uint32_t count_ = 0;
};

class PointerChaseStream final : public AccessStream {
 public:
  explicit PointerChaseStream(const StreamParams& p) : p_(p), rng_(p.seed) {
    cur_ = rng_.next_below(lines());
  }

  TraceEntry next() override {
    TraceEntry e;
    e.compute = p_.compute_per_access;
    e.addr = p_.base + cur_ * kLineBytes;
    e.type = AccessType::Read;  // chases are loads
    e.pc = 0x5000;
    e.dependent = true;  // the next address comes out of this load
    // Feistel-ish permutation step keeps the walk full-period-ish and
    // deterministic without materializing the chain.
    cur_ = (cur_ * 0x9E3779B97F4A7C15ull + 0x1234567) % lines();
    return e;
  }

  std::string name() const override { return "pointer-chase"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(rng_, cur_);
  }

 private:
  std::uint64_t lines() const { return p_.footprint / kLineBytes; }

  StreamParams p_;
  Rng rng_;
  std::uint64_t cur_;
};

class MixStream final : public AccessStream {
 public:
  MixStream(std::vector<std::unique_ptr<AccessStream>> parts, std::vector<double> weights,
            std::uint64_t seed)
      : parts_(std::move(parts)), cdf_(weights.size()), rng_(seed) {
    assert(parts_.size() == weights.size() && !parts_.empty());
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i] / total;
      cdf_[i] = acc;
    }
  }

  TraceEntry next() override {
    const double u = rng_.next_double();
    for (std::size_t i = 0; i < cdf_.size(); ++i)
      if (u <= cdf_[i]) return parts_[i]->next();
    return parts_.back()->next();
  }

  std::string name() const override { return "mix"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar.match(std::uint64_t{parts_.size()}, "mix part count");
    for (auto& part : parts_) {
      ar.match(part->name(), "mix part");
      ar(*part);
    }
    ar(rng_);
  }

 private:
  std::vector<std::unique_ptr<AccessStream>> parts_;
  std::vector<double> cdf_;
  Rng rng_;
};

}  // namespace

std::unique_ptr<AccessStream> make_streaming(const StreamParams& p, std::uint32_t stride_bytes) {
  return std::make_unique<StreamingStream>(p, stride_bytes);
}
std::unique_ptr<AccessStream> make_random(const StreamParams& p) {
  return std::make_unique<RandomStream>(p);
}
std::unique_ptr<AccessStream> make_zipf(const StreamParams& p, double theta) {
  return std::make_unique<ZipfStream>(p, theta);
}
std::unique_ptr<AccessStream> make_row_local(const StreamParams& p, std::uint32_t burst_len,
                                             std::uint64_t region_bytes) {
  return std::make_unique<RowLocalStream>(p, burst_len, region_bytes);
}
std::unique_ptr<AccessStream> make_pointer_chase(const StreamParams& p) {
  return std::make_unique<PointerChaseStream>(p);
}
std::unique_ptr<AccessStream> make_mix(std::vector<std::unique_ptr<AccessStream>> parts,
                                       std::vector<double> weights, std::uint64_t seed) {
  return std::make_unique<MixStream>(std::move(parts), std::move(weights), seed);
}

}  // namespace ima::workloads
