#include "dram/channel.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <ostream>

#include "common/ckpt.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"

namespace ima::dram {

namespace {

obs::EventKind event_kind_of(Cmd cmd) {
  switch (cmd) {
    case Cmd::Ref:
    case Cmd::RefRow:
      return obs::EventKind::Refresh;
    case Cmd::AapFpm:
    case Cmd::LisaRbm:
    case Cmd::Tra:
      return obs::EventKind::PimOp;
    default:
      return obs::EventKind::DramCmd;
  }
}

Cycle event_span_of(Cmd cmd, const Timings& tm) {
  switch (cmd) {
    case Cmd::Rd:
    case Cmd::Wr:
      return tm.bl;
    case Cmd::Ref:
      return tm.rfc;
    case Cmd::RefRow:
      return tm.rc;
    default:
      return 0;  // instant
  }
}

}  // namespace

Channel::Channel(const DramConfig& cfg, std::uint32_t channel_id, DataStore* data)
    : cfg_(cfg), id_(channel_id), data_(data), ranks_(cfg.geometry.ranks) {
  assert(cfg_.geometry.valid());
  const auto& g = cfg_.geometry;
  salp_ = cfg_.timings.salp;
  const std::uint32_t units_per_bank = salp_ ? g.subarrays : 1;
  units_per_rank_ = g.banks * units_per_bank;
  sub_shift_ = static_cast<std::uint32_t>(std::countr_zero(units_per_bank));
  sub_row_shift_ = static_cast<std::uint32_t>(std::countr_zero(g.rows_per_subarray));
  rank_shift_ = static_cast<std::uint32_t>(std::countr_zero(units_per_rank_));

  const std::size_t units = static_cast<std::size_t>(g.ranks) * units_per_rank_;
  unit_open_.assign(units, 0);
  unit_row_.assign(units, 0);
  unit_next_act_.assign(units, 0);
  unit_next_pre_.assign(units, 0);
  unit_next_rd_.assign(units, 0);
  unit_next_wr_.assign(units, 0);
  bank_open_units_.assign(static_cast<std::size_t>(g.ranks) * g.banks, 0);
  rank_open_units_.assign(g.ranks, 0);
}

Cycle Channel::earliest(Cmd cmd, const Coord& c, Cycle now) const {
  const RankState& rk = ranks_[c.rank];
  if (rk.power != PowerState::Active)
    return kCycleNever;  // the controller must wake the rank first
  const std::size_t u = unit_of(c);
  const Cycle t = std::max(now, rk.ready);

  switch (cmd) {
    case Cmd::Act:
      if (unit_open_[u]) return kCycleNever;
      return std::max({t, unit_next_act_[u], rk.next_act, faw_earliest(rk)});
    case Cmd::Pre:
      if (!unit_open_[u]) return kCycleNever;
      return std::max(t, unit_next_pre_[u]);
    case Cmd::PreAll: {
      // Linear sweep over the rank's contiguous unit slice.
      Cycle e = t;
      const std::size_t base = static_cast<std::size_t>(c.rank) * units_per_rank_;
      for (std::size_t i = base; i < base + units_per_rank_; ++i)
        if (unit_open_[i]) e = std::max(e, unit_next_pre_[i]);
      return e;
    }
    case Cmd::Rd:
      if (!unit_open_[u] || unit_row_[u] != c.row) return kCycleNever;
      return std::max({t, unit_next_rd_[u], bus_next_rd_});
    case Cmd::Wr:
      if (!unit_open_[u] || unit_row_[u] != c.row) return kCycleNever;
      return std::max({t, unit_next_wr_[u], bus_next_wr_});
    case Cmd::Ref:
      if (rank_open_units_[c.rank] != 0) return kCycleNever;
      return min_next_ready(c.rank, now);
    case Cmd::RefRow:
    case Cmd::AapFpm:
    case Cmd::LisaRbm:
    case Cmd::Tra:
      // All PUM / row-refresh commands behave like an ACT(+PRE) burst on a
      // fully precharged bank (every subarray quiet, under SALP).
      if (bank_open_units_[u >> sub_shift_] != 0) return kCycleNever;
      return std::max({t, unit_next_act_[u], rk.next_act, faw_earliest(rk)});
  }
  return kCycleNever;
}

void Channel::enter_power_state(std::uint32_t rank, PowerState state, Cycle now) {
  RankState& rk = ranks_[rank];
  if (rk.power == state) return;
  assert(all_banks_closed(rank) && "close all banks before a low-power state");
  ++state_version_;
  rk.bg_accum += static_cast<double>(now - rk.power_since) * cfg_.energy.standby_per_cycle *
                 power_scale(rk.power);
  rk.power = state;
  rk.power_since = now;
}

void Channel::wake_rank(std::uint32_t rank, Cycle now) {
  RankState& rk = ranks_[rank];
  if (rk.power == PowerState::Active) return;
  ++state_version_;
  rk.bg_accum += static_cast<double>(now - rk.power_since) * cfg_.energy.standby_per_cycle *
                 power_scale(rk.power);
  const Cycle exit_latency =
      rk.power == PowerState::SelfRefresh ? cfg_.timings.xs : cfg_.timings.xp;
  rk.power = PowerState::Active;
  rk.power_since = now;
  rk.ready = std::max(rk.ready, now + exit_latency);
}

PicoJoule Channel::background_energy(Cycle now) const {
  PicoJoule total = 0;
  for (const auto& rk : ranks_) {
    total += rk.bg_accum;
    if (now > rk.power_since)
      total += static_cast<double>(now - rk.power_since) * cfg_.energy.standby_per_cycle *
               power_scale(rk.power);
  }
  return total;
}

Cycle Channel::pim_latency(Cmd cmd, const PimArgs& args) const {
  switch (cmd) {
    case Cmd::AapFpm: return cfg_.timings.rc_fpm;
    case Cmd::LisaRbm:
      return cfg_.timings.rc_fpm + static_cast<Cycle>(args.hops) * cfg_.timings.lisa_hop;
    case Cmd::Tra: return cfg_.timings.tra + cfg_.timings.rp;
    default: return 0;
  }
}

void Channel::record_act(const Coord& c, std::uint32_t row, Cycle now) {
  RankState& rk = ranks_[c.rank];
  rk.act_ring[rk.acts % kFawWindow] = now;
  ++rk.acts;
  rk.next_act = std::max(rk.next_act, now + cfg_.timings.rrd);
  ++stats_.acts;
  if (act_hook_) {
    Coord rc = c;
    rc.row = row;
    act_hook_(rc, now);
  }
}

void Channel::issue(Cmd cmd, const Coord& c, Cycle now) {
  assert(can_issue(cmd, c, now));
  ++state_version_;
  IMA_TRACE(trace_, .cycle = now, .dur = event_span_of(cmd, cfg_.timings),
            .kind = event_kind_of(cmd), .pid = static_cast<std::uint16_t>(id_),
            .tid = static_cast<std::uint16_t>(c.rank * cfg_.geometry.banks + c.bank),
            .arg0 = c.row, .arg1 = c.column, .name = to_string(cmd));
  const Timings& tm = cfg_.timings;
  const Energy& en = cfg_.energy;
  RankState& rk = ranks_[c.rank];
  const std::size_t u = unit_of(c);

  switch (cmd) {
    case Cmd::Act:
      open_unit(u, c.row);
      unit_next_rd_[u] = unit_next_wr_[u] = now + tm.rcd;
      unit_next_pre_[u] = now + tm.ras;
      unit_next_act_[u] = now + tm.rc;
      record_act(c, c.row, now);
      stats_.cmd_energy += en.act;
      break;
    case Cmd::Pre:
      close_unit(u);
      unit_next_act_[u] = std::max(unit_next_act_[u], now + tm.rp);
      ++stats_.pres;
      stats_.cmd_energy += en.pre;
      break;
    case Cmd::PreAll: {
      const std::size_t base = static_cast<std::size_t>(c.rank) * units_per_rank_;
      for (std::size_t i = base; i < base + units_per_rank_; ++i) {
        if (!unit_open_[i]) continue;
        close_unit(i);
        unit_next_act_[i] = std::max(unit_next_act_[i], now + tm.rp);
        ++stats_.pres;
        stats_.cmd_energy += en.pre;
      }
      break;
    }
    case Cmd::Rd:
      bus_next_rd_ = std::max(bus_next_rd_, now + tm.ccd);
      bus_next_wr_ = std::max(bus_next_wr_, now + tm.rtw);
      unit_next_pre_[u] = std::max(unit_next_pre_[u], now + tm.rtp);
      ++stats_.rds;
      stats_.cmd_energy += en.rd + en.bus_per_line;
      stats_.bus_energy += en.bus_per_line;
      break;
    case Cmd::Wr:
      bus_next_wr_ = std::max(bus_next_wr_, now + tm.ccd);
      bus_next_rd_ = std::max(bus_next_rd_, now + tm.cwl + tm.bl + tm.wtr);
      unit_next_pre_[u] = std::max(unit_next_pre_[u], now + tm.cwl + tm.bl + tm.wr);
      ++stats_.wrs;
      stats_.cmd_energy += en.wr + en.bus_per_line;
      stats_.bus_energy += en.bus_per_line;
      break;
    case Cmd::Ref: {
      rk.ready = now + tm.rfc;
      // Every unit of the rank sits out tRFC. (Equivalent to the legacy
      // per-existing-entry update: t >= rank ready dominates any unit-level
      // now + tRFC term in later queries, so blanketing all units is
      // observably identical and keeps the write a linear sweep.)
      const std::size_t base = static_cast<std::size_t>(c.rank) * units_per_rank_;
      for (std::size_t i = base; i < base + units_per_rank_; ++i)
        unit_next_act_[i] = std::max(unit_next_act_[i], now + tm.rfc);
      ++stats_.refs;
      stats_.cmd_energy += en.ref;
      if (ref_hook_) ref_hook_(c.rank, now);
      break;
    }
    case Cmd::RefRow:
      // Internally an ACT+PRE of one row; bank occupied for tRC.
      unit_next_act_[u] = std::max(unit_next_act_[u], now + tm.rc);
      record_act(c, c.row, now);
      ++stats_.ref_rows;
      stats_.cmd_energy += en.ref_row;
      break;
    case Cmd::AapFpm:
    case Cmd::LisaRbm:
    case Cmd::Tra:
      assert(false && "use issue_pim for multi-row commands");
      break;
  }
}

void Channel::issue_act_charged(const Coord& c, Cycle now) {
  assert(can_issue(Cmd::Act, c, now));
  ++state_version_;
  IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::DramCmd,
            .pid = static_cast<std::uint16_t>(id_),
            .tid = static_cast<std::uint16_t>(c.rank * cfg_.geometry.banks + c.bank),
            .arg0 = c.row, .name = "ACT-charged");
  assert(!salp_ && "ChargeCache+SALP composition not modeled");
  const Timings& tm = cfg_.timings;
  const std::size_t u = unit_of(c);
  open_unit(u, c.row);
  unit_next_rd_[u] = unit_next_wr_[u] = now + tm.rcd_charged;
  unit_next_pre_[u] = now + tm.ras_charged;
  unit_next_act_[u] = now + tm.rc;
  record_act(c, c.row, now);
  // Sensing a charged row moves less charge: slightly cheaper activation.
  stats_.cmd_energy += cfg_.energy.act * 0.8;
  ++stats_.charged_acts;
}

void Channel::issue_pim(Cmd cmd, const Coord& bank_coord, const PimArgs& args, Cycle now) {
  assert(can_issue(cmd, bank_coord, now));
  ++state_version_;
  IMA_TRACE(trace_, .cycle = now, .dur = pim_latency(cmd, args),
            .kind = obs::EventKind::PimOp, .pid = static_cast<std::uint16_t>(id_),
            .tid = static_cast<std::uint16_t>(bank_coord.rank * cfg_.geometry.banks +
                                              bank_coord.bank),
            .arg0 = args.src_row, .arg1 = args.dst_row, .name = to_string(cmd));
  const Timings& tm = cfg_.timings;
  const Energy& en = cfg_.energy;

  Coord src = bank_coord, dst = bank_coord, third = bank_coord;
  src.row = args.src_row;
  dst.row = args.dst_row;
  third.row = args.row_c;

  // The occupied unit: the bank, or under SALP the source row's subarray
  // (whose row buffer the PUM operation monopolizes).
  const std::size_t u = unit_of(src);
  const auto occupy = [&](Cycle until) {
    unit_next_act_[u] = std::max(unit_next_act_[u], until);
  };

  switch (cmd) {
    case Cmd::AapFpm:
      // Two back-to-back activations (source then destination) + precharge.
      occupy(now + tm.rc_fpm);
      record_act(bank_coord, args.src_row, now);
      record_act(bank_coord, args.dst_row, now + tm.ras / 2);
      ++stats_.aaps;
      stats_.cmd_energy += en.aap;
      if (data_) {
        if (args.invert) data_->not_row(src, dst);
        else data_->copy_row(src, dst);
      }
      break;
    case Cmd::LisaRbm:
      occupy(now + tm.rc_fpm + static_cast<Cycle>(args.hops) * tm.lisa_hop);
      record_act(bank_coord, args.src_row, now);
      record_act(bank_coord, args.dst_row, now + tm.ras / 2);
      stats_.lisa_hops += args.hops;
      ++stats_.aaps;
      stats_.cmd_energy += en.aap + static_cast<double>(args.hops) * en.lisa_hop;
      if (data_) data_->copy_row(src, dst);
      break;
    case Cmd::Tra:
      occupy(now + tm.tra + tm.rp);
      record_act(bank_coord, args.src_row, now);
      record_act(bank_coord, args.dst_row, now);
      record_act(bank_coord, args.row_c, now);
      ++stats_.tras;
      stats_.cmd_energy += en.tra;
      if (data_) data_->majority3_rows(src, dst, third);
      break;
    default:
      assert(false && "not a PUM command");
  }
}

void Channel::register_stats(obs::StatRegistry& reg, const std::string& prefix) const {
  reg.counter(obs::join_path(prefix, "acts"), &stats_.acts);
  reg.counter(obs::join_path(prefix, "pres"), &stats_.pres);
  reg.counter(obs::join_path(prefix, "rds"), &stats_.rds);
  reg.counter(obs::join_path(prefix, "wrs"), &stats_.wrs);
  reg.counter(obs::join_path(prefix, "charged_acts"), &stats_.charged_acts);
  reg.counter(obs::join_path(prefix, "refs"), &stats_.refs);
  reg.counter(obs::join_path(prefix, "ref_rows"), &stats_.ref_rows);
  reg.counter(obs::join_path(prefix, "aaps"), &stats_.aaps);
  reg.counter(obs::join_path(prefix, "lisa_hops"), &stats_.lisa_hops);
  reg.counter(obs::join_path(prefix, "tras"), &stats_.tras);
  reg.gauge(obs::join_path(prefix, "cmd_energy_pj"), [this] { return stats_.cmd_energy; });
  reg.gauge(obs::join_path(prefix, "bus_energy_pj"), [this] { return stats_.bus_energy; });
}

void Channel::dump(std::ostream& os, Cycle now) const {
  os << "channel " << id_ << " @" << now << " state_version=" << state_version_ << "\n";
  for (std::uint32_t r = 0; r < cfg_.geometry.ranks; ++r) {
    const RankState& rk = ranks_[r];
    const char* power = rk.power == PowerState::Active ? "Active"
                        : rk.power == PowerState::PowerDown ? "PowerDown"
                                                            : "SelfRefresh";
    os << "  rank " << r << " power=" << power << " ready=" << rk.ready
       << (rk.ready > now ? " (busy)" : "") << " next_act=" << rk.next_act << "\n";
    for (std::uint32_t b = 0; b < cfg_.geometry.banks; ++b) {
      const std::size_t base =
          (static_cast<std::size_t>(r) * cfg_.geometry.banks + b) << sub_shift_;
      if (!salp_) {
        if (unit_open_[base]) {
          os << "    bank " << b << " OPEN row=" << unit_row_[base]
             << " next_pre=" << unit_next_pre_[base] << " next_rd=" << unit_next_rd_[base]
             << " next_wr=" << unit_next_wr_[base] << "\n";
        }
        continue;
      }
      for (std::uint32_t sa = 0; sa < cfg_.geometry.subarrays; ++sa) {
        if (unit_open_[base + sa])
          os << "    bank " << b << " subarray " << sa
             << " OPEN row=" << unit_row_[base + sa] << "\n";
      }
    }
  }
}

template <class Ar>
void Channel::fields(Ar& ar) {
  ar.section("channel");
  ar.match(id_, "channel id");
  ar.match(std::uint64_t{unit_open_.size()}, "channel unit count");
  ar.match(units_per_rank_, "units per rank");
  ar.match(salp_, "SALP mode");
  ar.match(std::uint64_t{ranks_.size()}, "rank count");
  ar(state_version_, unit_open_, unit_row_, unit_next_act_, unit_next_pre_, unit_next_rd_,
     unit_next_wr_, bank_open_units_, rank_open_units_);
  for (RankState& r : ranks_) ar(r);
  ar(bus_next_rd_, bus_next_wr_, stats_);
}
IMA_CKPT_FIELDS(Channel);

}  // namespace ima::dram
