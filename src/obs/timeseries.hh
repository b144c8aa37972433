// Windowed time-series sampling — the time axis StatRegistry lacks.
//
// A TimeSeries owns a set of named tracks (each a read closure over a
// registry entry or an ad-hoc gauge such as a queue depth) and, driven by
// advance(now) from the event loop, emits one sample per elapsed period
// boundary. Storage is sparse: a boundary whose values equal the previous
// stored sample is counted (emitted) but not stored, so quiescent phases
// cost nothing; storage is also capacity-bounded with an explicit dropped
// count, so a pathological run cannot eat the host.
//
// Clock-mode contract: advance() must be called at the top of the tick
// callback, before any state mutation. Boundaries crossed inside a
// SkipAhead jump are emitted with the values in force across the jump —
// which equal the values a PerCycle run reads at each boundary, because
// skipped cycles are provably state-neutral (common/clock.hh). Sample
// streams are therefore byte-identical across clock modes and, since the
// data rides through ReportFragment in submission order, across IMA_JOBS
// widths.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"
#include "obs/stat_registry.hh"

namespace ima::obs {

/// The plain-value result of a sampling run: copyable, mergeable through
/// ReportFragment, serialized by Report as one entry of the "timeseries"
/// block. Counter tracks are delta-encoded at JSON export only; samples
/// here hold absolute values.
struct TimeSeriesData {
  struct Sample {
    Cycle cycle = 0;
    std::vector<double> values;  // one per track, track order
  };

  std::string label;
  Cycle period = 0;
  std::uint64_t emitted = 0;  // period boundaries crossed
  std::uint64_t dropped = 0;  // value-changing samples lost to the cap
  std::vector<std::string> tracks;
  std::vector<StatKind> kinds;  // parallel to tracks
  std::vector<Sample> samples;  // stored (deduplicated) samples
};

class TimeSeries {
 public:
  explicit TimeSeries(std::string label, Cycle period,
                      std::size_t max_samples = 4096);

  /// Ad-hoc track (queue depth, occupancy, ...). Kind controls
  /// delta-encoding at export: Counter tracks export per-sample deltas.
  void add_track(std::string name, StatKind kind, std::function<double()> read);

  /// Track a registered stat by path. Returns false (and adds nothing) if
  /// the path is unknown. The registry entry's read closure is borrowed, so
  /// the owning component must outlive the last advance().
  bool track_path(const StatRegistry& reg, std::string_view path);

  /// Emit samples for every period boundary in (last, now]. O(1) per call
  /// regardless of how far `now` jumped.
  void advance(Cycle now);

  const TimeSeriesData& data() const { return data_; }

 private:
  TimeSeriesData data_;
  std::vector<std::function<double()>> reads_;
  std::size_t max_samples_;
  Cycle last_boundary_ = 0;  // last emitted boundary; 0 = none yet
  std::vector<double> prev_;  // values of the last *stored* sample
  bool stored_any_ = false;
};

}  // namespace ima::obs
