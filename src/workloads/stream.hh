// Synthetic memory-access streams.
//
// Substitution note (see DESIGN.md): the paper's motivating workloads are
// proprietary traces (Google consumer workloads, genome pipelines). What
// the cited results depend on is the *statistics* of the access stream —
// spatial locality, row locality, randomness, pointer-dependence, and the
// compute-per-access ratio — so the generators below reproduce those
// statistics parametrically.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace ima::ckpt {
class Sink;
class Source;
}  // namespace ima::ckpt

namespace ima::workloads {

/// One trace record: run `compute` instructions, then access `addr`.
struct TraceEntry {
  std::uint32_t compute = 0;
  Addr addr = 0;
  AccessType type = AccessType::Read;
  std::uint64_t pc = 0;
  // True if the address depends on the previous load's value (pointer
  // chase): speculative mechanisms (runahead) cannot compute it early.
  bool dependent = false;

  template <class Ar>
  void fields(Ar& ar) {
    ar(compute, addr, type, pc, dependent);
  }
};

class AccessStream {
 public:
  virtual ~AccessStream() = default;
  virtual TraceEntry next() = 0;
  virtual std::string name() const = 0;

  /// Checkpoint generator position/RNG state so a restored stream resumes
  /// the exact future access sequence. The restore target must be built by
  /// the same factory with the same parameters (names are fingerprinted by
  /// callers that serialize heterogeneous stream sets). Implementations
  /// forward both to their one fields() (common/ckpt.hh).
  virtual void save_state(ckpt::Sink&) const {}
  virtual void load_state(ckpt::Source&) {}
};

struct StreamParams {
  Addr base = 0;                 // footprint start
  std::uint64_t footprint = 64ull << 20;  // bytes
  std::uint32_t compute_per_access = 4;   // non-memory instructions
  double write_fraction = 0.2;
  std::uint64_t seed = 1;
};

/// Sequential scan with a fixed stride (streaming, maximal row locality).
std::unique_ptr<AccessStream> make_streaming(const StreamParams& p,
                                             std::uint32_t stride_bytes = kLineBytes);

/// Uniform random over the footprint (minimal locality — row-conflict heavy).
std::unique_ptr<AccessStream> make_random(const StreamParams& p);

/// Zipf-distributed over the footprint's lines (skewed hot set).
std::unique_ptr<AccessStream> make_zipf(const StreamParams& p, double theta = 0.9);

/// Bursts of sequential accesses inside one DRAM-row-sized region, then a
/// random jump (tunable row-buffer locality).
std::unique_ptr<AccessStream> make_row_local(const StreamParams& p,
                                             std::uint32_t burst_len = 16,
                                             std::uint64_t region_bytes = 8192);

/// Dependent pointer chase: the next address is a pseudorandom permutation
/// of the current one. No MLP, no prefetchability — the workload class PNM
/// pointer-chasing accelerators target.
std::unique_ptr<AccessStream> make_pointer_chase(const StreamParams& p);

/// Mixes several streams with given weights (per-access choice).
std::unique_ptr<AccessStream> make_mix(std::vector<std::unique_ptr<AccessStream>> parts,
                                       std::vector<double> weights, std::uint64_t seed = 1);

}  // namespace ima::workloads
