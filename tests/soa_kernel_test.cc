// Two-layer proof that the SoA bank-timing kernel is observably identical
// to the legacy AoS layout it replaced (DESIGN.md "SoA timing kernel"):
//
//  1. LegacyReference — a verbatim replica of the pre-SoA Channel timing
//     math: AoS BankState structs, a deque-backed tFAW window and the
//     lazily-allocated per-bank SALP subarray map. It is driven in
//     lockstep with dram::Channel over randomized command streams
//     (demand, PreAll, Ref, RefRow, PUM, charged ACTs, power states) and
//     every earliest()/state query must agree at every step, SALP on and
//     off, at 8-bank and 64-bank geometries.
//
//  2. Golden full-sim matrix — end-to-end MemorySystem runs across all 8
//     scheduler kinds + MISE, SALP, RAIDR + PARA, power-down/self-refresh
//     and the reliability patrol scrubber, each with no shard plan and at
//     shard widths 1, 2 and 8 (byte-identical, the scheduler legs on 8
//     host threads), pinned to recorded digests. Any change to a simulated
//     cycle, a stat or a completion timestamp shifts the digest.
//
// Regenerate goldens (only legitimate after an intentional semantic
// change): IMA_PRINT_GOLDEN=1 ./soa_kernel_test and paste the table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "harness/sweep.hh"
#include "mem/memsys.hh"
#include "mem/refresh.hh"
#include "mem/rowhammer.hh"

#include "oracle.hh"

namespace ima {
namespace {

// ---------------------------------------------------------------------------
// Layer 1: legacy AoS reference, kept bit-compatible with the pre-SoA
// implementation of src/dram/channel.cc.
// ---------------------------------------------------------------------------

class LegacyReference {
 public:
  using PowerState = dram::Channel::PowerState;

  explicit LegacyReference(const dram::DramConfig& cfg)
      : cfg_(cfg),
        banks_(static_cast<std::size_t>(cfg.geometry.ranks) * cfg.geometry.banks),
        ranks_(cfg.geometry.ranks) {}

  bool bank_open(const dram::Coord& c) const {
    const BankState& bk = bank(c);
    if (!cfg_.timings.salp) return bk.open;
    const auto it = bk.subs.find(cfg_.geometry.subarray_of_row(c.row));
    return it != bk.subs.end() && it->second.open;
  }

  std::uint32_t open_row(const dram::Coord& c) const {
    const BankState& bk = bank(c);
    if (!cfg_.timings.salp) return bk.row;
    const auto it = bk.subs.find(cfg_.geometry.subarray_of_row(c.row));
    return it != bk.subs.end() ? it->second.row : 0;
  }

  bool all_banks_closed(std::uint32_t rank) const {
    for (std::uint32_t b = 0; b < cfg_.geometry.banks; ++b) {
      const BankState& bk = banks_[rank * cfg_.geometry.banks + b];
      if (bk.open) return false;
      if (cfg_.timings.salp) {
        for (const auto& [sa, sub] : bk.subs)
          if (sub.open) return false;
      }
    }
    return true;
  }

  dram::Cmd required_cmd(const dram::Coord& c, AccessType type) const {
    if (!bank_open(c)) return dram::Cmd::Act;
    if (open_row(c) == c.row) return type == AccessType::Read ? dram::Cmd::Rd : dram::Cmd::Wr;
    return dram::Cmd::Pre;
  }

  Cycle earliest(dram::Cmd cmd, const dram::Coord& c, Cycle now) const {
    if (ranks_[c.rank].power != PowerState::Active) return kCycleNever;
    if (cfg_.timings.salp) return earliest_salp(cmd, c, now);
    const BankState& bk = bank(c);
    const RankState& rk = ranks_[c.rank];
    Cycle t = std::max(now, rk.ready);
    switch (cmd) {
      case dram::Cmd::Act:
        if (bk.open) return kCycleNever;
        return std::max({t, bk.next_act, rk.next_act, faw_earliest(rk)});
      case dram::Cmd::Pre:
        if (!bk.open) return kCycleNever;
        return std::max(t, bk.next_pre);
      case dram::Cmd::PreAll: {
        Cycle e = t;
        for (std::uint32_t b = 0; b < cfg_.geometry.banks; ++b) {
          const BankState& s = banks_[c.rank * cfg_.geometry.banks + b];
          if (s.open) e = std::max(e, s.next_pre);
        }
        return e;
      }
      case dram::Cmd::Rd:
        if (!bk.open || bk.row != c.row) return kCycleNever;
        return std::max({t, bk.next_rd, bus_next_rd_});
      case dram::Cmd::Wr:
        if (!bk.open || bk.row != c.row) return kCycleNever;
        return std::max({t, bk.next_wr, bus_next_wr_});
      case dram::Cmd::Ref: {
        if (!all_banks_closed(c.rank)) return kCycleNever;
        Cycle e = t;
        for (std::uint32_t b = 0; b < cfg_.geometry.banks; ++b)
          e = std::max(e, banks_[c.rank * cfg_.geometry.banks + b].next_act);
        return e;
      }
      case dram::Cmd::RefRow:
      case dram::Cmd::AapFpm:
      case dram::Cmd::LisaRbm:
      case dram::Cmd::Tra:
        if (bk.open) return kCycleNever;
        return std::max({t, bk.next_act, rk.next_act, faw_earliest(rk)});
    }
    return kCycleNever;
  }

  void issue(dram::Cmd cmd, const dram::Coord& c, Cycle now) {
    if (cfg_.timings.salp) {
      issue_salp(cmd, c, now);
      return;
    }
    const dram::Timings& tm = cfg_.timings;
    BankState& bk = bank(c);
    RankState& rk = ranks_[c.rank];
    switch (cmd) {
      case dram::Cmd::Act:
        bk.open = true;
        bk.row = c.row;
        bk.next_rd = bk.next_wr = now + tm.rcd;
        bk.next_pre = now + tm.ras;
        bk.next_act = now + tm.rc;
        record_act(c.rank, now);
        break;
      case dram::Cmd::Pre:
        bk.open = false;
        bk.next_act = std::max(bk.next_act, now + tm.rp);
        break;
      case dram::Cmd::PreAll:
        for (std::uint32_t b = 0; b < cfg_.geometry.banks; ++b) {
          BankState& s = banks_[c.rank * cfg_.geometry.banks + b];
          if (!s.open) continue;
          s.open = false;
          s.next_act = std::max(s.next_act, now + tm.rp);
        }
        break;
      case dram::Cmd::Rd:
        bus_next_rd_ = std::max(bus_next_rd_, now + tm.ccd);
        bus_next_wr_ = std::max(bus_next_wr_, now + tm.rtw);
        bk.next_pre = std::max(bk.next_pre, now + tm.rtp);
        break;
      case dram::Cmd::Wr:
        bus_next_wr_ = std::max(bus_next_wr_, now + tm.ccd);
        bus_next_rd_ = std::max(bus_next_rd_, now + tm.cwl + tm.bl + tm.wtr);
        bk.next_pre = std::max(bk.next_pre, now + tm.cwl + tm.bl + tm.wr);
        break;
      case dram::Cmd::Ref:
        rk.ready = now + tm.rfc;
        for (std::uint32_t b = 0; b < cfg_.geometry.banks; ++b) {
          BankState& s = banks_[c.rank * cfg_.geometry.banks + b];
          s.next_act = std::max(s.next_act, now + tm.rfc);
        }
        break;
      case dram::Cmd::RefRow:
        bk.next_act = std::max(bk.next_act, now + tm.rc);
        record_act(c.rank, now);
        break;
      default:
        FAIL() << "use issue_pim";
    }
  }

  void issue_act_charged(const dram::Coord& c, Cycle now) {
    const dram::Timings& tm = cfg_.timings;
    BankState& bk = bank(c);
    bk.open = true;
    bk.row = c.row;
    bk.next_rd = bk.next_wr = now + tm.rcd_charged;
    bk.next_pre = now + tm.ras_charged;
    bk.next_act = now + tm.rc;
    record_act(c.rank, now);
  }

  void issue_pim(dram::Cmd cmd, const dram::Coord& bc, const dram::PimArgs& args, Cycle now) {
    const dram::Timings& tm = cfg_.timings;
    BankState& bk = bank(bc);
    const auto salp_occupy = [&](Cycle until) {
      if (!cfg_.timings.salp) return;
      auto& sub = bk.subs[cfg_.geometry.subarray_of_row(args.src_row)];
      sub.next_act = std::max(sub.next_act, until);
    };
    switch (cmd) {
      case dram::Cmd::AapFpm:
        bk.next_act = std::max(bk.next_act, now + tm.rc_fpm);
        salp_occupy(now + tm.rc_fpm);
        record_act(bc.rank, now);
        record_act(bc.rank, now + tm.ras / 2);
        break;
      case dram::Cmd::LisaRbm:
        bk.next_act = std::max(
            bk.next_act, now + tm.rc_fpm + static_cast<Cycle>(args.hops) * tm.lisa_hop);
        salp_occupy(now + tm.rc_fpm + static_cast<Cycle>(args.hops) * tm.lisa_hop);
        record_act(bc.rank, now);
        record_act(bc.rank, now + tm.ras / 2);
        break;
      case dram::Cmd::Tra:
        bk.next_act = std::max(bk.next_act, now + tm.tra + tm.rp);
        salp_occupy(now + tm.tra + tm.rp);
        record_act(bc.rank, now);
        record_act(bc.rank, now);
        record_act(bc.rank, now);
        break;
      default:
        FAIL() << "not a PUM command";
    }
  }

  void enter_power_state(std::uint32_t rank, PowerState state, Cycle now) {
    RankState& rk = ranks_[rank];
    if (rk.power == state) return;
    rk.power = state;
    rk.power_since = now;
  }

  void wake_rank(std::uint32_t rank, Cycle now) {
    RankState& rk = ranks_[rank];
    if (rk.power == PowerState::Active) return;
    const Cycle exit_latency =
        rk.power == PowerState::SelfRefresh ? cfg_.timings.xs : cfg_.timings.xp;
    rk.power = PowerState::Active;
    rk.power_since = now;
    rk.ready = std::max(rk.ready, now + exit_latency);
  }

 private:
  struct SubarrayState {
    bool open = false;
    std::uint32_t row = 0;
    Cycle next_act = 0, next_pre = 0, next_rd = 0, next_wr = 0;
  };
  struct BankState {
    bool open = false;
    std::uint32_t row = 0;
    Cycle next_act = 0, next_pre = 0, next_rd = 0, next_wr = 0;
    std::unordered_map<std::uint32_t, SubarrayState> subs;
  };
  struct RankState {
    Cycle next_act = 0;
    Cycle ready = 0;
    std::deque<Cycle> act_window;
    PowerState power = PowerState::Active;
    Cycle power_since = 0;
  };

  BankState& bank(const dram::Coord& c) {
    return banks_[c.rank * cfg_.geometry.banks + c.bank];
  }
  const BankState& bank(const dram::Coord& c) const {
    return banks_[c.rank * cfg_.geometry.banks + c.bank];
  }

  Cycle faw_earliest(const RankState& r) const {
    if (r.act_window.size() < 4) return 0;
    return r.act_window[r.act_window.size() - 4] + cfg_.timings.faw;
  }

  void record_act(std::uint32_t rank, Cycle now) {
    RankState& rk = ranks_[rank];
    rk.act_window.push_back(now);
    while (rk.act_window.size() > 4) rk.act_window.pop_front();
    rk.next_act = std::max(rk.next_act, now + cfg_.timings.rrd);
  }

  bool bank_fully_closed(const BankState& bk) const {
    if (bk.open) return false;
    for (const auto& [sa, sub] : bk.subs)
      if (sub.open) return false;
    return true;
  }

  Cycle earliest_salp(dram::Cmd cmd, const dram::Coord& c, Cycle now) const {
    const BankState& bk = bank(c);
    const RankState& rk = ranks_[c.rank];
    const std::uint32_t sa = cfg_.geometry.subarray_of_row(c.row);
    const auto sub_it = bk.subs.find(sa);
    const SubarrayState* sub = sub_it != bk.subs.end() ? &sub_it->second : nullptr;
    Cycle t = std::max(now, rk.ready);
    switch (cmd) {
      case dram::Cmd::Act:
        if (sub && sub->open) return kCycleNever;
        return std::max({t, sub ? sub->next_act : 0, rk.next_act, faw_earliest(rk)});
      case dram::Cmd::Pre:
        if (!sub || !sub->open) return kCycleNever;
        return std::max(t, sub->next_pre);
      case dram::Cmd::PreAll: {
        Cycle e = t;
        for (std::uint32_t b = 0; b < cfg_.geometry.banks; ++b) {
          const BankState& s = banks_[c.rank * cfg_.geometry.banks + b];
          for (const auto& [si, ss] : s.subs)
            if (ss.open) e = std::max(e, ss.next_pre);
        }
        return e;
      }
      case dram::Cmd::Rd:
        if (!sub || !sub->open || sub->row != c.row) return kCycleNever;
        return std::max({t, sub->next_rd, bus_next_rd_});
      case dram::Cmd::Wr:
        if (!sub || !sub->open || sub->row != c.row) return kCycleNever;
        return std::max({t, sub->next_wr, bus_next_wr_});
      case dram::Cmd::Ref: {
        if (!all_banks_closed(c.rank)) return kCycleNever;
        Cycle e = t;
        for (std::uint32_t b = 0; b < cfg_.geometry.banks; ++b) {
          const BankState& s = banks_[c.rank * cfg_.geometry.banks + b];
          for (const auto& [si, ss] : s.subs) e = std::max(e, ss.next_act);
        }
        return e;
      }
      case dram::Cmd::RefRow:
      case dram::Cmd::AapFpm:
      case dram::Cmd::LisaRbm:
      case dram::Cmd::Tra:
        if (!bank_fully_closed(bk)) return kCycleNever;
        return std::max({t, sub ? sub->next_act : 0, rk.next_act, faw_earliest(rk)});
    }
    return kCycleNever;
  }

  void issue_salp(dram::Cmd cmd, const dram::Coord& c, Cycle now) {
    const dram::Timings& tm = cfg_.timings;
    BankState& bk = bank(c);
    RankState& rk = ranks_[c.rank];
    const std::uint32_t sa = cfg_.geometry.subarray_of_row(c.row);
    switch (cmd) {
      case dram::Cmd::Act: {
        SubarrayState& sub = bk.subs[sa];
        sub.open = true;
        sub.row = c.row;
        sub.next_rd = sub.next_wr = now + tm.rcd;
        sub.next_pre = now + tm.ras;
        sub.next_act = now + tm.rc;
        record_act(c.rank, now);
        break;
      }
      case dram::Cmd::Pre: {
        SubarrayState& sub = bk.subs[sa];
        sub.open = false;
        sub.next_act = std::max(sub.next_act, now + tm.rp);
        break;
      }
      case dram::Cmd::PreAll:
        for (std::uint32_t b = 0; b < cfg_.geometry.banks; ++b) {
          BankState& s = banks_[c.rank * cfg_.geometry.banks + b];
          for (auto& [si, ss] : s.subs) {
            if (!ss.open) continue;
            ss.open = false;
            ss.next_act = std::max(ss.next_act, now + tm.rp);
          }
        }
        break;
      case dram::Cmd::Rd: {
        SubarrayState& sub = bk.subs[sa];
        bus_next_rd_ = std::max(bus_next_rd_, now + tm.ccd);
        bus_next_wr_ = std::max(bus_next_wr_, now + tm.rtw);
        sub.next_pre = std::max(sub.next_pre, now + tm.rtp);
        break;
      }
      case dram::Cmd::Wr: {
        SubarrayState& sub = bk.subs[sa];
        bus_next_wr_ = std::max(bus_next_wr_, now + tm.ccd);
        bus_next_rd_ = std::max(bus_next_rd_, now + tm.cwl + tm.bl + tm.wtr);
        sub.next_pre = std::max(sub.next_pre, now + tm.cwl + tm.bl + tm.wr);
        break;
      }
      case dram::Cmd::Ref:
        rk.ready = now + tm.rfc;
        for (std::uint32_t b = 0; b < cfg_.geometry.banks; ++b) {
          BankState& s = banks_[c.rank * cfg_.geometry.banks + b];
          s.next_act = std::max(s.next_act, now + tm.rfc);
          for (auto& [si, ss] : s.subs) ss.next_act = std::max(ss.next_act, now + tm.rfc);
        }
        break;
      case dram::Cmd::RefRow: {
        SubarrayState& sub = bk.subs[sa];
        sub.next_act = std::max(sub.next_act, now + tm.rc);
        record_act(c.rank, now);
        break;
      }
      default:
        FAIL() << "use issue_pim";
    }
  }

  dram::DramConfig cfg_;
  std::vector<BankState> banks_;
  std::vector<RankState> ranks_;
  Cycle bus_next_rd_ = 0;
  Cycle bus_next_wr_ = 0;
};

constexpr dram::Cmd kAllCmds[] = {
    dram::Cmd::Act, dram::Cmd::Pre,    dram::Cmd::PreAll,  dram::Cmd::Rd,
    dram::Cmd::Wr,  dram::Cmd::Ref,    dram::Cmd::RefRow,  dram::Cmd::AapFpm,
    dram::Cmd::LisaRbm, dram::Cmd::Tra};

// Drives the real channel and the legacy reference through one randomized
// command stream, checking every timing query at every step.
void run_lockstep(dram::DramConfig cfg, std::uint64_t seed, int steps) {
  dram::Channel chan(cfg, 0, nullptr);
  LegacyReference ref(cfg);
  Rng rng(seed);
  const auto& g = cfg.geometry;
  Cycle now = 0;

  for (int step = 0; step < steps; ++step) {
    dram::Coord c;
    c.rank = static_cast<std::uint32_t>(rng.next_below(g.ranks));
    c.bank = static_cast<std::uint32_t>(rng.next_below(g.banks));
    c.row = static_cast<std::uint32_t>(rng.next_below(g.rows_per_bank()));
    c.column = static_cast<std::uint32_t>(rng.next_below(g.columns));

    // Every query agrees before any action is taken.
    ASSERT_EQ(ref.bank_open(c), chan.bank_open(c)) << "step " << step;
    ASSERT_EQ(ref.open_row(c), chan.open_row(c)) << "step " << step;
    ASSERT_EQ(ref.all_banks_closed(c.rank), chan.all_banks_closed(c.rank)) << "step " << step;
    ASSERT_EQ(ref.required_cmd(c, AccessType::Read), chan.required_cmd(c, AccessType::Read));
    ASSERT_EQ(ref.required_cmd(c, AccessType::Write), chan.required_cmd(c, AccessType::Write));
    for (const auto cmd : kAllCmds) {
      ASSERT_EQ(ref.earliest(cmd, c, now), chan.earliest(cmd, c, now))
          << "step " << step << " cmd " << dram::to_string(cmd) << " now " << now;
    }

    const std::uint64_t action = rng.next_below(100);
    if (action < 70) {
      // Demand path: advance the access with whatever it needs next.
      const AccessType type = rng.next_below(3) == 0 ? AccessType::Write : AccessType::Read;
      const dram::Cmd cmd = chan.required_cmd(c, type);
      const Cycle e = chan.earliest(cmd, c, now);
      if (e == kCycleNever) continue;  // rank asleep; a later step wakes it
      now = e;
      if (cmd == dram::Cmd::Act && !cfg.timings.salp && rng.next_below(8) == 0) {
        chan.issue_act_charged(c, now);
        ref.issue_act_charged(c, now);
      } else {
        chan.issue(cmd, c, now);
        ref.issue(cmd, c, now);
      }
    } else if (action < 78) {
      // Maintenance: PreAll then (sometimes) a blanket REF.
      const Cycle ep = chan.earliest(dram::Cmd::PreAll, c, now);
      if (ep == kCycleNever) continue;
      now = ep;
      chan.issue(dram::Cmd::PreAll, c, now);
      ref.issue(dram::Cmd::PreAll, c, now);
      if (rng.next_below(2) == 0) {
        const Cycle er = chan.earliest(dram::Cmd::Ref, c, now);
        if (er != kCycleNever) {
          now = er;
          chan.issue(dram::Cmd::Ref, c, now);
          ref.issue(dram::Cmd::Ref, c, now);
        }
      }
    } else if (action < 84) {
      // Targeted row refresh on a quiet bank.
      const Cycle e = chan.earliest(dram::Cmd::RefRow, c, now);
      if (e == kCycleNever) continue;
      now = e;
      chan.issue(dram::Cmd::RefRow, c, now);
      ref.issue(dram::Cmd::RefRow, c, now);
    } else if (action < 92) {
      // PUM command with random rows of the same bank.
      const dram::Cmd cmd = rng.next_below(3) == 0   ? dram::Cmd::Tra
                            : rng.next_below(2) == 0 ? dram::Cmd::LisaRbm
                                                     : dram::Cmd::AapFpm;
      dram::PimArgs args;
      args.src_row = static_cast<std::uint32_t>(rng.next_below(g.rows_per_bank()));
      args.dst_row = static_cast<std::uint32_t>(rng.next_below(g.rows_per_bank()));
      args.row_c = static_cast<std::uint32_t>(rng.next_below(g.rows_per_bank()));
      args.hops = static_cast<std::uint32_t>(1 + rng.next_below(4));
      const Cycle e = chan.earliest(cmd, c, now);
      if (e == kCycleNever) continue;
      now = e;
      chan.issue_pim(cmd, c, args, now);
      ref.issue_pim(cmd, c, args, now);
    } else if (action < 96) {
      // Power nap: legal only with the rank fully precharged.
      if (chan.rank_power(c.rank) == dram::Channel::PowerState::Active &&
          chan.all_banks_closed(c.rank)) {
        const auto state = rng.next_below(2) == 0
                               ? dram::Channel::PowerState::PowerDown
                               : dram::Channel::PowerState::SelfRefresh;
        chan.enter_power_state(c.rank, state, now);
        ref.enter_power_state(c.rank, state, now);
      }
    } else {
      for (std::uint32_t r = 0; r < g.ranks; ++r) {
        chan.wake_rank(r, now);
        ref.wake_rank(r, now);
      }
    }
    now += rng.next_below(5);
  }
}

dram::DramConfig lockstep_cfg(std::uint32_t banks, std::uint32_t ranks, bool salp) {
  auto cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.banks = banks;
  cfg.geometry.ranks = ranks;
  cfg.geometry.subarrays = 4;
  cfg.geometry.rows_per_subarray = 64;
  cfg.geometry.columns = 32;
  cfg.timings.salp = salp;
  return cfg;
}

TEST(SoaLockstep, EightBanksMatchesLegacyReference) {
  run_lockstep(lockstep_cfg(8, 2, false), 0xA11CE, 20'000);
}

TEST(SoaLockstep, SixtyFourBanksMatchesLegacyReference) {
  run_lockstep(lockstep_cfg(64, 1, false), 0xB0B, 12'000);
}

TEST(SoaLockstep, SalpMatchesLegacyReference) {
  run_lockstep(lockstep_cfg(8, 2, true), 0xCAFE, 20'000);
}

TEST(SoaLockstep, SalpSixtyFourBanksMatchesLegacyReference) {
  run_lockstep(lockstep_cfg(64, 1, true), 0xD00D, 12'000);
}

// ---------------------------------------------------------------------------
// Layer 2: golden full-sim matrix.
// ---------------------------------------------------------------------------

using namespace oracle;

Outcome run_sched_point(mem::SchedKind kind, bool salp, bool mise, unsigned shards) {
  mem::ControllerConfig ctrl;
  ctrl.sched = kind;
  mem::MemorySystem sys(matrix_dram(8, salp), ctrl);
  if (mise)
    for (std::uint32_t c = 0; c < sys.num_channels(); ++c)
      sys.controller(c).set_scheduler(mem::make_mise(ctrl.num_cores, 5'000));
  sys.set_shards(shards);
  const Outcome out = run_hashed(sys, 300, 0xC0FFEEull + static_cast<int>(kind));
  EXPECT_TRUE(sys.idle());
  return out;
}

Outcome run_refresh_point(unsigned shards) {
  const auto dram_cfg = matrix_dram(8);
  mem::ControllerConfig ctrl;
  mem::MemorySystem sys(dram_cfg, ctrl);
  const auto& g = dram_cfg.geometry;
  const auto profile = mem::RetentionProfile::generate(
      std::uint64_t{g.rows_per_bank()} * g.banks * g.ranks, 0.02, 0.1, 11);
  for (std::uint32_t c = 0; c < sys.num_channels(); ++c) {
    sys.controller(c).set_refresh_policy(
        mem::make_raidr(dram_cfg, profile, /*force_preall=*/true));
    sys.controller(c).set_rowhammer(mem::make_para(0.5, 77 + c));
  }
  sys.set_shards(shards);
  return run_hashed(sys, 500, 0xAB1Dull);
}

Outcome run_power_point(unsigned shards) {
  mem::ControllerConfig ctrl;
  ctrl.powerdown_timeout = 400;
  ctrl.selfrefresh_timeout = 4'000;
  mem::MemorySystem sys(matrix_dram(8), ctrl);
  sys.set_shards(shards, sim::conservative_epoch({sys.min_callback_latency()}, 0));
  Outcome out;
  Cycle now = 0;
  const auto& g = sys.dram_config().geometry;
  for (int burst = 0; burst < 6; ++burst) {
    for (int i = 0; i < 24; ++i) {
      const std::uint64_t h = harness::job_seed(31, static_cast<std::size_t>(burst * 64 + i));
      dram::Coord c;
      c.channel = static_cast<std::uint32_t>(h >> 4) % g.channels;
      c.bank = static_cast<std::uint32_t>(h >> 8) % g.banks;
      c.row = static_cast<std::uint32_t>(h >> 16) % g.rows_per_bank();
      mem::Request r;
      r.addr = sys.mapper().encode(c);
      r.arrive = now;
      EXPECT_TRUE(sys.enqueue(r, [&out](const mem::Request& done) {
        out.checksum = (out.checksum * 16777619) ^ done.complete;
      }));
    }
    now = sys.drain(now);
    // Idle gap long enough to cross both nap thresholds; per-cycle ticking
    // is the serial reference either width (power policy is per-controller,
    // the gap has no cross-shard callbacks in flight).
    for (const Cycle end = now + 9'000; now < end; ++now) sys.tick(now);
  }
  out.cycles = now;
  out.snapshot = render(sys);
  // The leg must actually exercise the nap machinery to pin anything.
  std::uint64_t pd = 0, sr = 0;
  for (std::uint32_t c = 0; c < sys.num_channels(); ++c) {
    pd += sys.controller(c).stats().powerdowns;
    sr += sys.controller(c).stats().selfrefreshes;
  }
  EXPECT_GT(pd, 0u);
  EXPECT_GT(sr, 0u);
  return out;
}

Outcome run_reliability_point(unsigned shards) {
  auto dram_cfg = matrix_dram(8);
  mem::ControllerConfig ctrl;
  ctrl.reliability.enabled = true;
  ctrl.reliability.ecc = reliability::EccKind::Secded;
  ctrl.reliability.seed = 5;
  ctrl.reliability.scrub = true;
  ctrl.reliability.scrub_period = 400'000;
  mem::MemorySystem sys(dram_cfg, ctrl);
  sys.set_shards(shards);
  const auto& g = dram_cfg.geometry;
  for (std::uint32_t ch = 0; ch < sys.num_channels(); ++ch) {
    auto* eng = sys.controller(ch).reliability_engine();
    for (std::uint32_t row : {10u, 20u, 30u}) {
      const dram::Coord c{ch, 0, ch % g.banks, row, row % g.columns};
      sys.poke_u64(sys.mapper().encode(c), 0xF00D0000ull + ch * 100 + row);
      eng->ensure_encoded(c);
      eng->injector().corrupt_line_bits(c, row == 20 ? 2 : 1);
    }
  }
  Outcome out;
  out.cycles = drain_hashed(sys, 200, 0x5EED5ull, out);
  // Let the patrol scrubber sweep: serial ticking, identical either width.
  Cycle now = out.cycles;
  for (const Cycle end = now + 100'000; now < end; ++now) sys.tick(now);
  out.cycles = now;
  for (std::uint32_t ch = 0; ch < sys.num_channels(); ++ch) {
    const auto& s = sys.controller(ch).reliability_engine()->stats();
    out.checksum = out.checksum * 31 + s.ce_words * 7 + s.due_events * 11 + s.sdc_reads * 13;
  }
  out.snapshot = render(sys);
  return out;
}

struct Golden {
  const char* name;
  Cycle cycles;
  std::uint64_t digest;
};

// Re-recorded when sharded drains began to return their exact finish
// rather than the next epoch edge (IMA_PRINT_GOLDEN=1, see header). The
// digests before that were captured on the pre-SoA implementation.
constexpr Golden kGoldens[] = {
    {"sched_FCFS", 5423ull, 15924776191264318587ull},
    {"sched_FR-FCFS", 5332ull, 9190859192146109905ull},
    {"sched_FR-FCFS-Cap", 4874ull, 5907951494821253606ull},
    {"sched_PAR-BS", 5009ull, 1138425111323682041ull},
    {"sched_ATLAS", 4971ull, 14822036697033637174ull},
    {"sched_TCM", 5535ull, 10163723008593717985ull},
    {"sched_BLISS", 5236ull, 4389494251996553596ull},
    {"sched_RL", 5135ull, 14590020867819251639ull},
    {"sched_MISE", 5500ull, 8976799762031266570ull},
    {"salp_FR-FCFS", 2470ull, 1477906050257769554ull},
    {"salp_PAR-BS", 2391ull, 16832499614892052052ull},
    {"salp_FCFS", 2388ull, 9782496295965610926ull},
    {"salp_FR-FCFS-Cap", 2510ull, 9664012783531059693ull},
    {"salp_ATLAS", 2425ull, 196728595679544153ull},
    {"salp_TCM", 2360ull, 15104462110258858928ull},
    {"salp_BLISS", 2386ull, 17146751656146560186ull},
    {"salp_RL", 2440ull, 6574598102437892196ull},
    {"salp_MISE", 2997ull, 13150588663387197384ull},
    {"raidr_para", 17176ull, 12805175665473698453ull},
    {"power", 57362ull, 6567938477973948240ull},
    {"reliability_scrub", 104840ull, 9002253087068744538ull},
};

/// Runs `run` with no shard plan and at shard widths 1, 2 and 8, requires
/// byte-identical outcomes, and checks them against golden entry `name`.
/// Returns the width-8 outcome.
template <typename Run>
Outcome check_point(const std::string& name, Run&& run) {
  const Outcome w0 = run(0u);
  const Outcome w1 = run(1u);
  const Outcome w2 = run(2u);
  const Outcome w8 = run(8u);
  EXPECT_EQ(w0, w1) << name << ": a shard plan changed the bytes";
  EXPECT_EQ(w1, w2) << name << ": shard width 2 changed the bytes";
  EXPECT_EQ(w1, w8) << name << ": shard width 8 changed the bytes";
  if (std::getenv("IMA_PRINT_GOLDEN")) {
    printf("    {\"%s\", %lluull, %lluull},\n", name.c_str(),
           static_cast<unsigned long long>(w1.cycles),
           static_cast<unsigned long long>(w1.digest()));
    return w8;
  }
  for (const auto& gld : kGoldens) {
    if (name != gld.name) continue;
    EXPECT_EQ(w1.cycles, gld.cycles) << name << ": simulated cycle count drifted";
    EXPECT_EQ(w1.digest(), gld.digest) << name << ": stats/completion digest drifted";
    return w8;
  }
  ADD_FAILURE() << "no golden entry for " << name;
  return w8;
}

// All 8 factory kinds plus MISE, each named `<prefix><kind>`.
void check_all_kinds(const char* prefix, bool salp) {
  const mem::SchedKind kinds[] = {
      mem::SchedKind::Fcfs,  mem::SchedKind::FrFcfs, mem::SchedKind::FrFcfsCap,
      mem::SchedKind::ParBs, mem::SchedKind::Atlas,  mem::SchedKind::Tcm,
      mem::SchedKind::Bliss, mem::SchedKind::Rl};
  const auto check = [salp](const std::string& name, mem::SchedKind kind, bool mise) {
    const Outcome w8 = check_point(
        name, [&](unsigned shards) { return run_sched_point(kind, salp, mise, shards); });
    EXPECT_GT(w8.cycles, 0u) << name;
    EXPECT_NE(w8.checksum, 0u) << name;
    // The width-8 run really used 8 host threads (nothing forced collapse).
    EXPECT_EQ(w8.workers_used, 8u) << name;
  };
  for (const auto kind : kinds) check(std::string(prefix) + mem::to_string(kind), kind, false);
  check(std::string(prefix) + "MISE", mem::SchedKind::FrFcfs, true);
}

TEST(SoaGoldenMatrix, SchedulersAndMise) { check_all_kinds("sched_", false); }

TEST(SoaGoldenMatrix, Salp) { check_all_kinds("salp_", true); }

TEST(SoaGoldenMatrix, RaidrRefreshWithPara) { check_point("raidr_para", run_refresh_point); }

TEST(SoaGoldenMatrix, PowerManagement) { check_point("power", run_power_point); }

TEST(SoaGoldenMatrix, ReliabilityScrubber) {
  check_point("reliability_scrub", run_reliability_point);
}

}  // namespace
}  // namespace ima
