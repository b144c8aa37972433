#include "mem/refresh.hh"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "common/ckpt.hh"
#include "obs/stat_registry.hh"

namespace ima::mem {

void RefreshPolicy::dump(std::ostream& os, Cycle) const {
  os << "  refresh policy: " << name() << "\n";
}

RetentionProfile RetentionProfile::generate(std::uint64_t total_rows, double weak_frac,
                                            double mid_frac, std::uint64_t seed) {
  RetentionProfile p;
  p.bin_of_row.resize(total_rows);
  Rng rng(seed);
  for (auto& b : p.bin_of_row) {
    const double u = rng.next_double();
    if (u < weak_frac) b = 0;
    else if (u < weak_frac + mid_frac) b = 1;
    else b = 2;
  }
  return p;
}

std::uint64_t RetentionProfile::rows_in_bin(std::uint8_t bin) const {
  return static_cast<std::uint64_t>(
      std::count(bin_of_row.begin(), bin_of_row.end(), bin));
}

namespace {

class NoRefresh final : public RefreshPolicy {
 public:
  bool tick(dram::Channel&, Cycle) override { return false; }
  bool rank_blocked(std::uint32_t, Cycle) const override { return false; }
  Cycle next_event(Cycle) const override { return kCycleNever; }
  std::string name() const override { return "none"; }
};

class AllBankRefresh final : public RefreshPolicy {
 public:
  AllBankRefresh(const dram::DramConfig& cfg, double interval_scale)
      : interval_(static_cast<Cycle>(static_cast<double>(cfg.timings.refi) * interval_scale)) {
    next_due_.resize(cfg.geometry.ranks);
    sr_at_last_tick_.assign(cfg.geometry.ranks, false);
    // Stagger ranks so their tRFC windows do not overlap.
    for (std::uint32_t r = 0; r < cfg.geometry.ranks; ++r)
      next_due_[r] = interval_ + r * (interval_ / std::max<Cycle>(1, cfg.geometry.ranks));
  }

  bool tick(dram::Channel& chan, Cycle now) override {
    for (std::uint32_t r = 0; r < next_due_.size(); ++r) {
      // Self-refreshing ranks maintain their own cells; their due time is
      // re-armed on wake (on_rank_wake).
      const bool sr = chan.rank_power(r) == dram::Channel::PowerState::SelfRefresh;
      sr_at_last_tick_[r] = sr;
      if (sr || now < next_due_[r]) continue;
      dram::Coord c;
      c.rank = r;
      if (chan.can_issue(dram::Cmd::Ref, c, now)) {
        chan.issue(dram::Cmd::Ref, c, now);
        ++refs_issued_;
        next_due_[r] += interval_;
        return true;
      }
      // Banks still open: force them shut so the overdue REF can go.
      if (chan.can_issue(dram::Cmd::PreAll, c, now)) {
        chan.issue(dram::Cmd::PreAll, c, now);
        ++prealls_forced_;
        return true;
      }
      return false;  // waiting on tRAS/tWR; hold the rank blocked
    }
    return false;
  }

  bool rank_blocked(std::uint32_t rank, Cycle now) const override {
    return rank < next_due_.size() && next_due_[rank] <= now && !sr_at_last_tick_[rank];
  }

  Cycle blocked_since(std::uint32_t rank) const override {
    // Inside the ref-hook the due time is not yet re-armed (tick() bumps it
    // after issue() returns), so this is the start of the window just
    // closed by the issuing REF.
    return rank < next_due_.size() ? next_due_[rank] : kCycleNever;
  }

  void dump(std::ostream& os, Cycle now) const override {
    os << "  refresh policy: all-bank, interval=" << interval_
       << ", refs_issued=" << refs_issued_ << ", prealls_forced=" << prealls_forced_ << "\n";
    for (std::uint32_t r = 0; r < next_due_.size(); ++r) {
      os << "    rank" << r << " next_due=" << next_due_[r];
      if (sr_at_last_tick_[r]) os << " (self-refreshing)";
      else if (next_due_[r] <= now) os << " (overdue by " << now - next_due_[r] << ")";
      os << "\n";
    }
  }

  Cycle next_event(Cycle now) const override {
    Cycle next = kCycleNever;
    for (std::uint32_t r = 0; r < next_due_.size(); ++r) {
      // Self-refreshing ranks maintain themselves; their due time is
      // re-armed on wake (on_rank_wake), so they contribute no event.
      if (sr_at_last_tick_.size() > r && sr_at_last_tick_[r]) continue;
      if (next_due_[r] <= now) return now + 1;  // overdue/held: retry every cycle
      next = std::min(next, next_due_[r]);
    }
    return next;
  }

  void on_rank_wake(std::uint32_t rank, Cycle now) override {
    // A full interval from the last cycle the rank maintained its own cells,
    // now - 1. Earlier models slid a self-refreshing rank's due time to
    // tick + interval at every tick, leaving exactly this value at the wake;
    // keeping it keeps every recorded REF cycle where it was.
    if (rank < next_due_.size()) next_due_[rank] = now - 1 + interval_;
    if (rank < sr_at_last_tick_.size()) sr_at_last_tick_[rank] = false;
  }

  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const override {
    reg.counter(obs::join_path(prefix, "refs_issued"), &refs_issued_);
    reg.counter(obs::join_path(prefix, "prealls_forced"), &prealls_forced_);
  }

  std::string name() const override { return "all-bank"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(refs_issued_, prealls_forced_, next_due_, sr_at_last_tick_);
  }

 private:
  Cycle interval_;
  std::uint64_t refs_issued_ = 0;
  std::uint64_t prealls_forced_ = 0;
  std::vector<Cycle> next_due_;
  std::vector<bool> sr_at_last_tick_;  // never blocked, no next_event
};

/// RAIDR. Refresh work is expressed as row refreshes per base window per
/// bin, paced uniformly: bin k contributes rows_in_bin(k)/2^k row-refreshes
/// per 64ms window. Pacing is integer and closed-form — after `now` cycles
/// bin b owes floor((now + 1) * rows_b / period_b) row refreshes — so the
/// schedule is a pure function of `now` and identical under per-cycle and
/// skip-ahead clocking.
class RaidrRefresh final : public RefreshPolicy {
 public:
  RaidrRefresh(const dram::DramConfig& cfg, RetentionProfile profile, bool force_preall)
      : cfg_(cfg), profile_(std::move(profile)), force_preall_(force_preall) {
    // Base window: 8192 REF intervals = one full 64ms retention period.
    base_window_ = static_cast<Cycle>(cfg.timings.refi) * 8192;
    const std::uint64_t total_rows = profile_.bin_of_row.size();
    // Group rows by bin for round-robin issue.
    rows_by_bin_.resize(profile_.num_bins);
    for (std::uint64_t row = 0; row < total_rows; ++row)
      rows_by_bin_[profile_.bin_of_row[row]].push_back(row);
    cursor_.assign(profile_.num_bins, 0);
    issued_.assign(profile_.num_bins, 0);
    period_.resize(profile_.num_bins);
    for (std::uint32_t b = 0; b < profile_.num_bins; ++b)
      period_[b] = base_window_ * (Cycle{1} << b);
  }

  bool tick(dram::Channel& chan, Cycle now) override {
    for (std::uint32_t b = 0; b < profile_.num_bins; ++b) {
      if (rows_by_bin_[b].empty() || issued_[b] >= due(b, now)) continue;
      const std::uint64_t row_id = rows_by_bin_[b][cursor_[b]];
      const dram::Coord c = coord_of(row_id);
      // A drained burst can park the target bank open with no demand left
      // to close it; without this preall the head RefRow (and with it every
      // bin, weak rows first) deadlocks until unrelated traffic arrives.
      // force_preall_ is only ever false in the watchdog regression test,
      // which reproduces exactly that wedge.
      if (chan.bank_open(c)) {
        if (!force_preall_) return false;
        if (!chan.can_issue(dram::Cmd::Pre, c, now)) return false;
        chan.issue(dram::Cmd::Pre, c, now);
        ++prealls_forced_;
        return true;
      }
      if (chan.can_issue(dram::Cmd::RefRow, c, now)) {
        chan.issue(dram::Cmd::RefRow, c, now);
        ++row_refs_issued_;
        ++issued_[b];
        cursor_[b] = (cursor_[b] + 1) % rows_by_bin_[b].size();
        return true;
      }
      // Bank busy: try again next cycle (the deficit persists in `due`).
      return false;
    }
    return false;
  }

  bool rank_blocked(std::uint32_t, Cycle) const override { return false; }

  Cycle next_event(Cycle now) const override {
    Cycle next = kCycleNever;
    for (std::uint32_t b = 0; b < profile_.num_bins; ++b) {
      if (rows_by_bin_[b].empty()) continue;
      if (issued_[b] < due(b, now)) return now + 1;  // backlog: retry every cycle
      // Smallest t with due(b, t) > issued_[b]: (t + 1) * rows >= (issued + 1) * period.
      const std::uint64_t rows = rows_by_bin_[b].size();
      const Cycle t = (issued_[b] + 1) * period_[b] / rows + (((issued_[b] + 1) * period_[b]) % rows ? 1 : 0) - 1;
      next = std::min(next, t);
    }
    return next;
  }

  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const override {
    reg.counter(obs::join_path(prefix, "row_refs_issued"), &row_refs_issued_);
    reg.counter(obs::join_path(prefix, "prealls_forced"), &prealls_forced_);
    reg.gauge(obs::join_path(prefix, "row_refreshes_per_window"),
              [this] { return row_refreshes_per_window(); });
  }

  std::string name() const override { return "RAIDR"; }

  void dump(std::ostream& os, Cycle now) const override {
    os << "  refresh policy: RAIDR, row_refs_issued=" << row_refs_issued_
       << ", prealls_forced=" << prealls_forced_
       << (force_preall_ ? "" : " (force_preall DISABLED)") << "\n";
    for (std::uint32_t b = 0; b < profile_.num_bins; ++b) {
      if (rows_by_bin_[b].empty()) continue;
      const std::uint64_t owed = due(b, now);
      os << "    bin" << b << ": rows=" << rows_by_bin_[b].size()
         << " issued=" << issued_[b] << " due=" << owed;
      if (owed > issued_[b]) {
        const std::uint64_t row_id = rows_by_bin_[b][cursor_[b]];
        const dram::Coord c = coord_of(row_id);
        os << " BACKLOG=" << owed - issued_[b] << " head: rank=" << c.rank
           << " bank=" << c.bank << " row=" << c.row;
      }
      os << "\n";
    }
  }

  // rows_by_bin_/period_ are construction-derived from the profile; only
  // the pacing cursors and counters are mutable.
  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(row_refs_issued_, prealls_forced_, cursor_, issued_);
  }

  /// Row refreshes per base window — the paper's headline metric.
  double row_refreshes_per_window() const {
    double total = 0.0;
    for (std::uint32_t b = 0; b < profile_.num_bins; ++b)
      total += static_cast<double>(rows_by_bin_[b].size()) / static_cast<double>(1u << b);
    return total;
  }

 private:
  dram::Coord coord_of(std::uint64_t row_id) const {
    const auto& g = cfg_.geometry;
    dram::Coord c;
    c.row = static_cast<std::uint32_t>(row_id % g.rows_per_bank());
    row_id /= g.rows_per_bank();
    c.bank = static_cast<std::uint32_t>(row_id % g.banks);
    row_id /= g.banks;
    c.rank = static_cast<std::uint32_t>(row_id % g.ranks);
    return c;
  }

  /// Row refreshes bin b owes by the end of cycle `now`.
  std::uint64_t due(std::uint32_t b, Cycle now) const {
    return (now + 1) * rows_by_bin_[b].size() / period_[b];
  }

  dram::DramConfig cfg_;
  RetentionProfile profile_;
  bool force_preall_ = true;
  std::uint64_t row_refs_issued_ = 0;
  std::uint64_t prealls_forced_ = 0;
  Cycle base_window_ = 0;
  std::vector<std::vector<std::uint64_t>> rows_by_bin_;
  std::vector<std::size_t> cursor_;
  std::vector<std::uint64_t> issued_;
  std::vector<Cycle> period_;
};

}  // namespace

std::unique_ptr<RefreshPolicy> make_no_refresh() { return std::make_unique<NoRefresh>(); }

std::unique_ptr<RefreshPolicy> make_all_bank_refresh(const dram::DramConfig& cfg,
                                                     double interval_scale) {
  return std::make_unique<AllBankRefresh>(cfg, interval_scale);
}

std::unique_ptr<RefreshPolicy> make_raidr(const dram::DramConfig& cfg, RetentionProfile profile,
                                          bool force_preall) {
  return std::make_unique<RaidrRefresh>(cfg, std::move(profile), force_preall);
}

}  // namespace ima::mem
