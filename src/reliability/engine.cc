#include "reliability/engine.hh"

#include <algorithm>

#include "common/ckpt.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"

namespace ima::reliability {

Engine::Engine(dram::Channel& chan, const Config& cfg)
    : chan_(chan),
      cfg_(cfg),
      injector_(chan.data(), chan.config().geometry, cfg.seed) {
  const auto& g = chan_.config().geometry;
  rows_total_ = static_cast<std::uint64_t>(g.ranks) * g.banks * g.rows_per_bank();
  retention_base_ = cfg_.retention_base_window != 0
                        ? cfg_.retention_base_window
                        : static_cast<Cycle>(chan_.config().timings.refi) * 8192;
  scrub_period_ = cfg_.scrub_period != 0 ? cfg_.scrub_period : retention_base_ * 8;
  rank_epoch_.assign(g.ranks, 0);
  rank_refs_.assign(g.ranks, 0);
  if (chan_.data() == nullptr) cfg_.enabled = false;  // timing-only channel
}

Cycle Engine::retention_period(std::uint64_t row_id) const {
  const std::uint8_t bin = cfg_.true_bin_of_row[row_id];
  return retention_base_ << bin;
}

void Engine::on_act(const dram::Coord& c, Cycle now) {
  last_now_ = now;
  if (!cfg_.enabled || !cfg_.retention_faults || cfg_.true_bin_of_row.empty()) return;
  const std::uint64_t row_id = injector_.row_site(c) % rows_total_;
  if (row_id >= cfg_.true_bin_of_row.size()) return;
  Cycle t0 = rank_epoch_[c.rank];
  if (auto it = last_restore_.find(row_id); it != last_restore_.end() && it->second > t0) {
    t0 = it->second;
  }
  const Cycle period = retention_period(row_id);
  // Decay starts one full window past the guaranteed retention time: a row
  // restored within ~1.2x its period (normal refresh jitter) never decays,
  // one refreshed at 4x its period has been exposed for 3 windows.
  const std::uint64_t elapsed_windows = (now - t0) / period;
  if (elapsed_windows >= 2) {
    ensure_encoded_row(c);
    const std::uint32_t bits =
        injector_.decay_row(c, elapsed_windows - 1, cfg_.retention_word_flip_prob);
    if (bits > 0) {
      stats_.retention_bits += bits;
      IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::FaultInject,
                .pid = static_cast<std::uint16_t>(chan_.id()),
                .tid = static_cast<std::uint16_t>(c.rank * chan_.config().geometry.banks +
                                                  c.bank),
                .arg0 = c.row, .arg1 = bits, .name = "retention-decay");
    }
  }
  last_restore_[row_id] = now;
}

void Engine::on_blanket_ref(std::uint32_t rank, Cycle now) {
  last_now_ = now;
  if (!cfg_.enabled || rank >= rank_refs_.size()) return;
  // One REF covers 1/8192 of the rank; after a full set every row has been
  // restored at least once since the previous epoch.
  if (++rank_refs_[rank] >= 8192) {
    rank_refs_[rank] = 0;
    rank_epoch_[rank] = now;
  }
}

void Engine::on_hammer_flip(const dram::Coord& victim) {
  if (!cfg_.enabled || !cfg_.hammer_flips) return;
  if (row_retired(victim)) return;  // retired rows carry no live data
  ensure_encoded_row(victim);
  const std::uint32_t bits =
      injector_.hammer_flip(victim, cfg_.hammer_bits_per_crossing);
  stats_.hammer_bits += bits;
  IMA_TRACE(trace_, .cycle = last_now_, .kind = obs::EventKind::FaultInject,
            .pid = static_cast<std::uint16_t>(chan_.id()),
            .tid = static_cast<std::uint16_t>(victim.rank * chan_.config().geometry.banks +
                                              victim.bank),
            .arg0 = victim.row, .arg1 = bits, .name = "hammer-flip");
}

void Engine::encode_line(const dram::Coord& line) {
  std::uint64_t words[8];
  chan_.data()->read_line(line, words);
  auto& entry = checks_[injector_.line_key(line)];
  if (cfg_.ecc == EccKind::Secded) {
    for (int w = 0; w < 8; ++w) entry[w] = secded_encode(words[w]);
  } else if (cfg_.ecc == EccKind::Chipkill) {
    const ChipkillCheck ck = chipkill_encode(words);
    entry[0] = ck.c[0];
    entry[1] = ck.c[1];
    entry[2] = ck.c[2];
  }
  ecc_energy_ += cfg_.ecc_energy_per_access;
}

void Engine::ensure_encoded(const dram::Coord& line) {
  if (cfg_.ecc == EccKind::None) return;
  if (checks_.count(injector_.line_key(line)) == 0) encode_line(line);
}

void Engine::ensure_encoded_row(const dram::Coord& row) {
  if (cfg_.ecc == EccKind::None) return;
  dram::Coord line = row;
  for (std::uint32_t col = 0; col < chan_.config().geometry.columns; ++col) {
    line.column = col;
    ensure_encoded(line);
  }
}

Engine::LineOutcome Engine::decode_line(const dram::Coord& line) {
  LineOutcome out;
  if (cfg_.ecc == EccKind::None) return out;
  const std::uint64_t key = injector_.line_key(line);
  auto it = checks_.find(key);
  if (it == checks_.end()) return out;  // never corrupted, never written: clean
  ecc_energy_ += cfg_.ecc_energy_per_access;

  std::uint64_t words[8];
  chan_.data()->read_line(line, words);
  bool changed = false;
  if (cfg_.ecc == EccKind::Secded) {
    for (std::uint32_t w = 0; w < 8; ++w) {
      const SecdedResult r = secded_decode(words[w], it->second[w]);
      if (r.outcome == EccOutcome::Uncorrectable) {
        out.outcome = EccOutcome::Uncorrectable;
        continue;
      }
      if (r.outcome == EccOutcome::Corrected) {
        if (out.outcome == EccOutcome::Clean) out.outcome = EccOutcome::Corrected;
        ++out.corrected;
        if (r.corrected_data_bit >= 0) {
          words[w] = r.data;
          changed = true;
          injector_.note_correction(key, w, static_cast<std::uint32_t>(r.corrected_data_bit));
        } else {
          // The flipped bit was in the stored check byte: refresh it.
          it->second[w] = secded_encode(words[w]);
        }
      }
    }
  } else {
    const ChipkillResult r = chipkill_decode(words, ChipkillCheck{{it->second[0],
                                                                  it->second[1],
                                                                  it->second[2]}});
    out.outcome = r.outcome;
    if (r.outcome == EccOutcome::Corrected) {
      if (r.corrected_byte >= 0) {
        changed = true;
        ++out.corrected;
        std::uint8_t pat = r.error_pattern;
        while (pat != 0) {
          const int bit = __builtin_ctz(pat);
          pat = static_cast<std::uint8_t>(pat & (pat - 1));
          const std::uint32_t w = static_cast<std::uint32_t>(r.corrected_byte) / 8;
          const std::uint32_t b =
              (static_cast<std::uint32_t>(r.corrected_byte) % 8) * 8 +
              static_cast<std::uint32_t>(bit);
          injector_.note_correction(key, w, b);
        }
      } else {
        // Check-symbol error: re-derive the stored checks from clean data.
        const ChipkillCheck ck = chipkill_encode(words);
        it->second[0] = ck.c[0];
        it->second[1] = ck.c[1];
        it->second[2] = ck.c[2];
        ++out.corrected;
      }
    }
  }
  if (changed) chan_.data()->write_line(line, words);
  return out;
}

void Engine::handle_due(const dram::Coord& line, Cycle now) {
  ++stats_.due_events;
  poisoned_.insert(injector_.line_key(line));
  IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::EccError,
            .pid = static_cast<std::uint16_t>(chan_.id()), .arg0 = line.row, .arg1 = 1,
            .name = "ecc-due");
  retire_row(line, now);
}

void Engine::note_ce(const dram::Coord& line, std::uint32_t corrected, Cycle now,
                     bool scrubbing) {
  if (scrubbing) {
    stats_.scrub_ce += corrected;
  } else {
    stats_.ce_words += corrected;
  }
  IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::EccError,
            .pid = static_cast<std::uint16_t>(chan_.id()), .arg0 = line.row, .arg1 = 0,
            .name = "ecc-ce");
  if (cfg_.ce_retire_threshold == 0) return;
  const std::uint64_t row_id = injector_.row_site(line);
  if ((row_ce_[row_id] += corrected) >= cfg_.ce_retire_threshold) retire_row(line, now);
}

void Engine::retire_row(const dram::Coord& row, Cycle now) {
  const std::uint64_t row_id = injector_.row_site(row);
  if (!retired_.insert(row_id).second) return;
  dram::Coord r = row;
  r.column = 0;
  retired_list_.push_back(r);
  ++stats_.rows_retired;
  IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::RowRetire,
            .pid = static_cast<std::uint16_t>(chan_.id()),
            .tid = static_cast<std::uint16_t>(r.rank * chan_.config().geometry.banks +
                                              r.bank),
            .arg0 = r.row);
  if (retire_hook_) retire_hook_(r);
}

Engine::ReadResult Engine::on_read(const dram::Coord& c, Cycle now) {
  ReadResult res;
  if (!cfg_.enabled) return res;
  last_now_ = now;
  if (cfg_.ecc != EccKind::None) {
    res.extra_latency = cfg_.ecc == EccKind::Secded ? cfg_.secded_read_penalty
                                                    : cfg_.chipkill_read_penalty;
  }
  if (cfg_.read_ber > 0.0) {
    ensure_encoded(c);
    const std::uint32_t bits = injector_.corrupt_line(c, cfg_.read_ber);
    stats_.read_ber_bits += bits;
  }
  const std::uint64_t key = injector_.line_key(c);
  if (poisoned_.count(key) > 0) {
    ++stats_.poisoned_reads;
    res.poisoned = true;
    return res;
  }
  if (cfg_.ecc == EccKind::None) {
    if (injector_.pending_bits(key) > 0) ++stats_.sdc_reads;
    return res;
  }
  const LineOutcome out = decode_line(c);
  if (out.outcome == EccOutcome::Uncorrectable) {
    handle_due(c, now);
    res.poisoned = true;
    return res;
  }
  if (out.corrected > 0) note_ce(c, out.corrected, now);
  // The decoder accepted the line; if the ledger still shows outstanding
  // flips, ECC was silently defeated (aliased multi-bit pattern).
  if (injector_.pending_bits(key) > 0) {
    ++stats_.sdc_reads;
    if (out.corrected > 0) ++stats_.miscorrections;
  }
  return res;
}

void Engine::on_write(const dram::Coord& c, Cycle now) {
  if (!cfg_.enabled) return;
  if (now != 0) last_now_ = now;
  const std::uint64_t key = injector_.line_key(c);
  injector_.clear_line(key);
  poisoned_.erase(key);
  if (cfg_.ecc != EccKind::None && checks_.count(key) > 0) encode_line(c);
}

std::uint64_t Engine::scrub_owed(Cycle now) const {
  // Same integer pacing as RAIDR: after `now+1` cycles, owed =
  // floor((now+1) * rows / period) rows, so a full sweep completes every
  // `period` cycles with no drift.
  return (static_cast<std::uint64_t>(now) + 1) * rows_total_ / scrub_period_;
}

dram::Coord Engine::scrub_coord(std::uint64_t cursor) const {
  const auto& g = chan_.config().geometry;
  const std::uint64_t id = cursor % rows_total_;
  dram::Coord c{};
  c.channel = chan_.id();
  c.row = static_cast<std::uint32_t>(id % g.rows_per_bank());
  c.bank = static_cast<std::uint32_t>((id / g.rows_per_bank()) % g.banks);
  c.rank = static_cast<std::uint32_t>(id / g.rows_per_bank() / g.banks);
  return c;
}

bool Engine::scrub_tick(Cycle now) {
  if (!cfg_.enabled || !cfg_.scrub) return false;
  if (scrub_issued_ >= scrub_owed(now)) return false;
  const dram::Coord row = scrub_coord(scrub_cursor_);
  if (chan_.bank_open(row)) {
    if (!chan_.can_issue(dram::Cmd::Pre, row, now)) return false;
    chan_.issue(dram::Cmd::Pre, row, now);
    return true;
  }
  if (!chan_.can_issue(dram::Cmd::RefRow, row, now)) return false;
  // The RefRow restores the row (and, via the ACT hook, injects any decay
  // the row accumulated first — scrubbing a lapsed row sees its damage).
  chan_.issue(dram::Cmd::RefRow, row, now);
  ++scrub_issued_;
  ++scrub_cursor_;
  ++stats_.scrub_rows;
  IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::Scrub,
            .pid = static_cast<std::uint16_t>(chan_.id()),
            .tid = static_cast<std::uint16_t>(row.rank * chan_.config().geometry.banks +
                                              row.bank),
            .arg0 = row.row);
  if (cfg_.ecc == EccKind::None) return true;
  // Read-correct-writeback every line of the row.
  dram::Coord line = row;
  for (std::uint32_t col = 0; col < chan_.config().geometry.columns; ++col) {
    line.column = col;
    if (checks_.count(injector_.line_key(line)) == 0) continue;
    const LineOutcome out = decode_line(line);
    if (out.outcome == EccOutcome::Uncorrectable) {
      ++stats_.scrub_due;
      handle_due(line, now);
    } else if (out.corrected > 0) {
      note_ce(line, out.corrected, now, /*scrubbing=*/true);
    }
  }
  return true;
}

Cycle Engine::next_event(Cycle now) const {
  if (!cfg_.enabled || !cfg_.scrub) return kCycleNever;
  if (scrub_issued_ < scrub_owed(now)) return now + 1;
  // Invert owed(t) = floor((t+1)*rows/period) > issued:
  // first t with (t+1)*rows > issued*period.
  const std::uint64_t target = scrub_issued_ + 1;
  const std::uint64_t num = target * scrub_period_;
  Cycle t = static_cast<Cycle>(num / rows_total_ + (num % rows_total_ ? 1 : 0)) - 1;
  return t > now ? t : now + 1;
}

std::uint64_t Engine::check_bytes() const {
  const std::uint64_t per_line = cfg_.ecc == EccKind::Secded ? 8
                                 : cfg_.ecc == EccKind::Chipkill ? kChipkillCheckBytes
                                                                 : 0;
  return checks_.size() * per_line;
}

void Engine::register_stats(obs::StatRegistry& reg, const std::string& prefix) const {
  reg.counter(obs::join_path(prefix, "ce_words"), &stats_.ce_words);
  reg.counter(obs::join_path(prefix, "due_events"), &stats_.due_events);
  reg.counter(obs::join_path(prefix, "sdc_reads"), &stats_.sdc_reads);
  reg.counter(obs::join_path(prefix, "miscorrections"), &stats_.miscorrections);
  reg.counter(obs::join_path(prefix, "poisoned_reads"), &stats_.poisoned_reads);
  reg.counter(obs::join_path(prefix, "hammer_bits"), &stats_.hammer_bits);
  reg.counter(obs::join_path(prefix, "retention_bits"), &stats_.retention_bits);
  reg.counter(obs::join_path(prefix, "read_ber_bits"), &stats_.read_ber_bits);
  reg.counter(obs::join_path(prefix, "scrub_rows"), &stats_.scrub_rows);
  reg.counter(obs::join_path(prefix, "scrub_ce"), &stats_.scrub_ce);
  reg.counter(obs::join_path(prefix, "scrub_due"), &stats_.scrub_due);
  reg.counter(obs::join_path(prefix, "rows_retired"), &stats_.rows_retired);
  reg.gauge(obs::join_path(prefix, "corrupt_lines"),
            [this] { return static_cast<double>(injector_.corrupt_lines()); });
  reg.gauge(obs::join_path(prefix, "check_bytes"),
            [this] { return static_cast<double>(check_bytes()); });
  reg.gauge(obs::join_path(prefix, "ecc_energy_pj"),
            [this] { return static_cast<double>(ecc_energy_); });
}

template <class Ar>
void Engine::fields(Ar& ar) {
  ar.section("reliability");
  ar(injector_, checks_, last_restore_, rank_epoch_, rank_refs_, poisoned_, retired_,
     retired_list_, row_ce_, scrub_cursor_, scrub_issued_, stats_, ecc_energy_, last_now_);
}
IMA_CKPT_FIELDS(Engine);

}  // namespace ima::reliability
