// Machine-readable experiment reports.
//
// A Report collects what a bench binary used to only print — the claim
// header, result tables, free-form metrics and a StatRegistry snapshot —
// and serializes it as JSON (one self-describing document) and CSV (tables
// only, for spreadsheet import). bench_util.hh routes every experiment
// harness through this, so each run leaves a BENCH_<id>.json beside its
// human-readable table and the ROADMAP perf trajectory can be tracked by
// tooling instead of eyeballs.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "obs/stat_registry.hh"
#include "obs/timeseries.hh"

namespace ima::obs {

/// Per-job slice of a Report, fillable from a sweep worker with no shared
/// state: one job records its metrics, pre-formatted table rows and stat
/// snapshots here, and the sweep barrier merges the fragments into the
/// parent Report *in submission order* — which is what makes merged
/// reports byte-identical at any worker count (harness/sweep.hh).
class ReportFragment {
 public:
  void metric(std::string name, double value) {
    metrics_.emplace_back(std::move(name), value);
  }
  /// One already-formatted table row; the barrier appends rows job by job,
  /// so formatting happens inside the job and merging is a pure append.
  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }
  /// Flattened registry values for the report's "stats" section. Take the
  /// snapshot *inside the job*, while the job's System is alive.
  void snapshot(const StatRegistry::Snapshot& snap) {
    for (const auto& v : snap.values) stats_.emplace_back(v.path, v.value);
  }
  /// A finished sampling run for the report's "timeseries" block; take the
  /// data inside the job like a snapshot (TimeSeriesData is plain values).
  void timeseries(TimeSeriesData d) { timeseries_.push_back(std::move(d)); }

  bool empty() const {
    return metrics_.empty() && rows_.empty() && stats_.empty() && timeseries_.empty();
  }
  const std::vector<std::pair<std::string, double>>& metrics() const { return metrics_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }
  const std::vector<std::pair<std::string, double>>& stats() const { return stats_; }
  const std::vector<TimeSeriesData>& timeseries() const { return timeseries_; }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::pair<std::string, double>> stats_;
  std::vector<TimeSeriesData> timeseries_;
};

class Report {
 public:
  explicit Report(std::string id, std::string title = "", std::string claim = "");

  void set_shape(std::string expectation) { shape_ = std::move(expectation); }
  void add_table(const Table& t, std::string title = "");
  void add_metric(std::string name, double value);
  /// Flattens a registry snapshot into the "stats" section.
  void add_snapshot(const StatRegistry::Snapshot& snap);
  /// Appends one sampling run to the "timeseries" block. The block is only
  /// serialized when at least one series was added, so reports from benches
  /// that never sample stay byte-identical to pre-telemetry output.
  void add_timeseries(TimeSeriesData d);
  /// Appends a fragment's metrics and stats (table rows are the caller's
  /// to place — they belong to a Table the caller assembles).
  void merge(const ReportFragment& frag);

  /// Orderly-completion stamp, serialized as "complete": an artifact from
  /// a bench that died mid-run carries complete=false, so tooling can tell
  /// a partial BENCH_<id>.json from a finished one (bench_util stamps this
  /// on orderly flush only).
  void set_complete(bool complete) { complete_ = complete; }
  bool complete() const { return complete_; }

  const std::string& id() const { return id_; }

  void write_json(std::ostream& os) const;
  /// Tables only; multiple tables are separated by a blank line and a
  /// "# title" comment row.
  void write_csv(std::ostream& os) const;

  /// Writes BENCH_<id>.json and BENCH_<id>.csv into `dir` ("" = cwd).
  /// Returns false on I/O failure.
  bool write_files(const std::string& dir) const;

  /// $IMA_BENCH_OUT when set, else "." — where write_files() should land
  /// for bench binaries.
  static std::string default_out_dir();

 private:
  struct NamedTable {
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };

  std::string id_;
  std::string title_;
  std::string claim_;
  std::string shape_;
  bool complete_ = false;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, double>> stats_;
  std::vector<TimeSeriesData> timeseries_;
  std::vector<NamedTable> tables_;
};

/// Writes one table in RFC-4180-style CSV (quote fields containing comma,
/// quote or newline; embedded quotes double).
void write_csv_table(std::ostream& os, const std::vector<std::string>& headers,
                     const std::vector<std::vector<std::string>>& rows);

}  // namespace ima::obs
