#include "mem/rowhammer.hh"

#include <algorithm>

#include "common/ckpt.hh"
#include "obs/stat_registry.hh"

namespace ima::mem {

void HammerVictimModel::register_stats(obs::StatRegistry& reg, const std::string& prefix) const {
  reg.counter(obs::join_path(prefix, "flips"), &flips_);
  reg.gauge(obs::join_path(prefix, "tracked_rows"),
            [this] { return static_cast<double>(disturb_count_.size()); });
  reg.gauge(obs::join_path(prefix, "threshold"),
            [this] { return static_cast<double>(threshold_); });
}

void HammerVictimModel::disturb(const dram::Coord& c, std::uint32_t row) {
  auto& count = disturb_count_[key(c, row)];
  if (++count >= threshold_) {
    ++flips_;
    count = 0;  // the flip happened; further counting models the next flip
    if (flip_sink_) {
      dram::Coord victim = c;
      victim.row = row;
      flip_sink_(victim);
    }
  }
}

void HammerVictimModel::on_act(const dram::Coord& c) {
  if (c.row > 0) disturb(c, c.row - 1);
  if (c.row + 1 < rows_per_bank_) disturb(c, c.row + 1);
  // Activating (or row-refreshing) a row fully restores its own cells.
  disturb_count_.erase(key(c, c.row));
}

void HammerVictimModel::on_row_refresh(const dram::Coord& c) {
  disturb_count_.erase(key(c, c.row));
}

void HammerVictimModel::on_ref_command() {
  // JEDEC refreshes all rows over 8192 REF commands; approximate the
  // rolling restore with a full clear once per window.
  if (++refs_seen_ >= 8192) {
    refs_seen_ = 0;
    disturb_count_.clear();
  }
}

void HammerVictimModel::on_blanket_refresh() {
  refs_seen_ = 0;
  disturb_count_.clear();
}

namespace {

dram::Coord neighbor(const dram::Coord& c, std::int32_t delta) {
  dram::Coord v = c;
  v.row = static_cast<std::uint32_t>(static_cast<std::int64_t>(c.row) + delta);
  return v;
}

class Para final : public RowHammerMitigation {
 public:
  Para(double p, std::uint64_t seed) : p_(p), rng_(seed) {}

  void on_act(const dram::Coord& c, Cycle, std::vector<dram::Coord>& out) override {
    const std::size_t before = out.size();
    if (rng_.chance(p_ / 2.0) && c.row > 0) out.push_back(neighbor(c, -1));
    if (rng_.chance(p_ / 2.0)) out.push_back(neighbor(c, +1));
    victims_requested_ += out.size() - before;
  }

  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const override {
    reg.counter(obs::join_path(prefix, "victims_requested"), &victims_requested_);
  }

  std::string name() const override { return "PARA"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(rng_, victims_requested_);
  }

 private:
  double p_;
  Rng rng_;
  std::uint64_t victims_requested_ = 0;
};

class TrrSample final : public RowHammerMitigation {
 public:
  TrrSample(std::uint32_t sampler_size, std::uint64_t act_threshold, std::uint64_t seed)
      : size_(sampler_size), act_threshold_(act_threshold), rng_(seed) {}

  void on_act(const dram::Coord& c, Cycle, std::vector<dram::Coord>& out) override {
    const std::uint64_t bank = (static_cast<std::uint64_t>(c.rank) << 8) | c.bank;
    auto& sampler = samplers_[bank];
    auto it = std::find_if(sampler.begin(), sampler.end(),
                           [&](const Entry& e) { return e.row == c.row; });
    if (it != sampler.end()) {
      if (++it->count >= act_threshold_) {
        // Aggressor confirmed: refresh its neighbours now.
        dram::Coord base = c;
        if (c.row > 0) out.push_back(neighbor(base, -1));
        out.push_back(neighbor(base, +1));
        victims_requested_ += c.row > 0 ? 2 : 1;
        it->count = 0;
      }
      return;
    }
    if (sampler.size() < size_) {
      sampler.push_back({c.row, 1, c});
    } else if (rng_.chance(1.0 / 16.0)) {
      // Random replacement — this is the exploitable hole: an attacker with
      // more aggressor rows than sampler entries evicts the real counters.
      sampler[rng_.next_below(sampler.size())] = {c.row, 1, c};
    }
  }

  void on_refresh_window() override {
    for (auto& [bank, sampler] : samplers_)
      for (auto& e : sampler) e.count = 0;
  }

  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const override {
    reg.counter(obs::join_path(prefix, "victims_requested"), &victims_requested_);
  }

  std::string name() const override { return "TRR-sample"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(rng_, victims_requested_, samplers_);
  }

 private:
  std::uint64_t victims_requested_ = 0;

  struct Entry {
    std::uint32_t row;
    std::uint64_t count;
    dram::Coord coord;

    template <class Ar>
    void fields(Ar& ar) {
      ar(row, count, coord);
    }
  };
  std::uint32_t size_;
  std::uint64_t act_threshold_;
  Rng rng_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> samplers_;
};

class Graphene final : public RowHammerMitigation {
 public:
  Graphene(std::uint32_t k, std::uint64_t threshold)
      : k_(k), trigger_(std::max<std::uint64_t>(1, threshold / 2)) {}

  void on_act(const dram::Coord& c, Cycle, std::vector<dram::Coord>& out) override {
    const std::uint64_t bank = (static_cast<std::uint64_t>(c.rank) << 8) | c.bank;
    auto& table = tables_[bank];

    if (auto it = table.counts.find(c.row); it != table.counts.end()) {
      if (++it->second >= trigger_ + table.spillover) {
        if (c.row > 0) out.push_back(neighbor(c, -1));
        out.push_back(neighbor(c, +1));
        victims_requested_ += c.row > 0 ? 2 : 1;
        it->second = table.spillover;  // reset relative to the floor
      }
      return;
    }
    if (table.counts.size() < k_) {
      table.counts.emplace(c.row, table.spillover + 1);
      return;
    }
    // Misra-Gries decrement step: no free counter — either displace the
    // minimum or raise the spillover floor.
    auto min_it = std::min_element(
        table.counts.begin(), table.counts.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    if (min_it->second <= table.spillover) {
      table.counts.erase(min_it);
      table.counts.emplace(c.row, table.spillover + 1);
    } else {
      ++table.spillover;
    }
  }

  void on_refresh_window() override {
    for (auto& [bank, table] : tables_) {
      table.counts.clear();
      table.spillover = 0;
    }
  }

  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const override {
    reg.counter(obs::join_path(prefix, "victims_requested"), &victims_requested_);
  }

  std::string name() const override { return "Graphene"; }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(victims_requested_, tables_);
  }

 private:
  std::uint64_t victims_requested_ = 0;

  struct Table {
    std::unordered_map<std::uint32_t, std::uint64_t> counts;
    std::uint64_t spillover = 0;

    template <class Ar>
    void fields(Ar& ar) {
      ar(counts, spillover);
    }
  };
  std::uint32_t k_;
  std::uint64_t trigger_;
  std::unordered_map<std::uint64_t, Table> tables_;
};

}  // namespace

std::unique_ptr<RowHammerMitigation> make_para(double p, std::uint64_t seed) {
  return std::make_unique<Para>(p, seed);
}

std::unique_ptr<RowHammerMitigation> make_trr_sample(std::uint32_t sampler_size,
                                                     std::uint64_t act_threshold,
                                                     std::uint64_t seed) {
  return std::make_unique<TrrSample>(sampler_size, act_threshold, seed);
}

std::unique_ptr<RowHammerMitigation> make_graphene(std::uint32_t k, std::uint64_t threshold) {
  return std::make_unique<Graphene>(k, threshold);
}

}  // namespace ima::mem
