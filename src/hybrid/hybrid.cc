#include "hybrid/hybrid.hh"

#include <algorithm>
#include <cassert>

namespace ima::hybrid {

dram::DramConfig pcm_config() {
  auto cfg = dram::DramConfig::ddr4_2400();
  cfg.name = "PCM";
  // Phase-change timings (Lee et al. [22] ballpark at a 0.833ns clock):
  // ~50ns array read, ~150ns+ write (SET/RESET), destructive-free rows.
  cfg.timings.rcd = 66;    // ~55ns sensing
  cfg.timings.ras = 80;
  cfg.timings.rc = 150;
  cfg.timings.rp = 12;     // no restore needed (non-destructive reads)
  cfg.timings.wr = 360;    // ~300ns write recovery
  cfg.timings.refi = 0x7FFFFFFF;  // no refresh
  cfg.energy.act = 1800.0;        // array read energy
  cfg.energy.pre = 100.0;
  cfg.energy.rd = 1100.0;
  cfg.energy.wr = 12000.0;        // writes are the endurance/energy problem
  cfg.energy.ref = 0.0;
  cfg.energy.standby_per_cycle = 8.0;  // non-volatile: near-zero idle power
  return cfg;
}

const char* to_string(Placement p) {
  switch (p) {
    case Placement::Static: return "static";
    case Placement::HotPage: return "hot-page";
    case Placement::RblAware: return "rbl-aware";
  }
  return "?";
}

HybridMemory::HybridMemory(const HybridConfig& cfg) : cfg_(cfg) {
  dram_ = std::make_unique<mem::MemorySystem>(cfg.dram, cfg.ctrl);
  auto pcm_ctrl = cfg.ctrl;
  pcm_ = std::make_unique<mem::MemorySystem>(cfg.pcm, pcm_ctrl);
  pcm_->controller(0).set_refresh_policy(mem::make_no_refresh());

  const std::uint64_t slots = dram_slots();
  slot_owner_.assign(slots, ~0ull);
  for (std::uint64_t s = 0; s < slots; ++s) free_slots_.push_back(s);
  next_epoch_ = cfg.epoch;

  if (cfg_.policy == Placement::Static) {
    // Pin the first pages of the address space.
    for (std::uint64_t s = 0; s < slots; ++s) {
      page_table_[s] = s;
      slot_owner_[s] = s;
    }
    free_slots_.clear();
  }
}

bool HybridMemory::can_accept(Addr addr, AccessType type, std::uint32_t core) const {
  const std::uint64_t page = addr / cfg_.page_bytes;
  const auto it = page_table_.find(page);
  if (it != page_table_.end()) {
    const Addr daddr = it->second * cfg_.page_bytes + addr % cfg_.page_bytes;
    return dram_->can_accept(daddr, type, core);
  }
  return pcm_->can_accept(addr % cfg_.pcm.geometry.total_bytes(), type, core);
}

bool HybridMemory::enqueue(mem::Request req, mem::CompletionCallback cb) {
  const std::uint64_t page = req.addr / cfg_.page_bytes;

  // Epoch bookkeeping for the adaptive policies.
  if (cfg_.policy != Placement::Static) {
    auto& info = epoch_info_[page];
    ++info.epoch_accesses;
    // Row-buffer locality is a *temporal* property: the access is a row hit
    // only if the globally last-touched row-sized region matches (accesses
    // to other pages in between destroy the open row).
    const std::uint64_t row = req.addr / cfg_.dram.geometry.row_bytes();
    if (row == last_row_) ++info.epoch_row_hits;
    last_row_ = row;
  }

  const auto it = page_table_.find(page);
  if (it != page_table_.end()) {
    mem::Request r = req;
    r.addr = it->second * cfg_.page_bytes + req.addr % cfg_.page_bytes;
    r.addr %= cfg_.dram.geometry.total_bytes();
    if (!dram_->enqueue(r, std::move(cb))) return false;
    ++stats_.dram_serviced;
    return true;
  }
  mem::Request r = req;
  r.addr %= cfg_.pcm.geometry.total_bytes();
  if (!pcm_->enqueue(r, std::move(cb))) return false;
  ++stats_.pcm_serviced;
  if (req.type == AccessType::Write) ++stats_.pcm_writes;
  return true;
}

void HybridMemory::migrate_lines(std::uint64_t page, bool to_dram, Cycle now) {
  // One read per line from the source tier, one posted write to the
  // destination. Queue-full drops are tolerated (best-effort model — the
  // data-movement *cost* is what matters here) but counted into
  // stats_.migration_drops so the loss is visible, never silent.
  const auto post = [this](mem::MemorySystem& sys, const mem::Request& r) {
    if (!sys.enqueue(r)) ++stats_.migration_drops;
  };
  const std::uint64_t lines = cfg_.page_bytes / kLineBytes;
  for (std::uint64_t l = 0; l < lines; ++l) {
    const Addr offset = page * cfg_.page_bytes + l * kLineBytes;
    mem::Request rd;
    rd.addr = offset % cfg_.pcm.geometry.total_bytes();
    rd.type = AccessType::Read;
    rd.arrive = now;
    mem::Request wr;
    wr.addr = offset % cfg_.dram.geometry.total_bytes();
    wr.type = AccessType::Write;
    wr.arrive = now;
    if (to_dram) {
      post(*pcm_, rd);
      post(*dram_, wr);
    } else {
      post(*dram_, rd);
      mem::Request pcm_wr = wr;
      pcm_wr.addr = offset % cfg_.pcm.geometry.total_bytes();
      post(*pcm_, pcm_wr);
      ++stats_.pcm_writes;
    }
    ++stats_.migration_lines;
  }
}

void HybridMemory::promote(std::uint64_t page, Cycle now) {
  if (page_table_.count(page)) return;
  if (free_slots_.empty()) return;  // demotions freed nothing this epoch
  const std::uint64_t slot = free_slots_.front();
  free_slots_.pop_front();
  page_table_[page] = slot;
  slot_owner_[slot] = page;
  migrate_lines(page, /*to_dram=*/true, now);
  ++stats_.promotions;
}

void HybridMemory::demote(std::uint64_t page, Cycle now) {
  const auto it = page_table_.find(page);
  if (it == page_table_.end()) return;
  slot_owner_[it->second] = ~0ull;
  free_slots_.push_back(it->second);
  page_table_.erase(it);
  migrate_lines(page, /*to_dram=*/false, now);
  ++stats_.demotions;
}

void HybridMemory::on_epoch(Cycle now) {
  if (cfg_.policy == Placement::Static) return;

  // Score pages: HotPage uses raw access counts; RblAware weights accesses
  // by row-buffer *misses* (hits are served equally fast from PCM).
  struct Cand {
    std::uint64_t page;
    double score;
  };
  std::vector<Cand> candidates;
  for (const auto& [page, info] : epoch_info_) {
    double score = static_cast<double>(info.epoch_accesses);
    if (cfg_.policy == Placement::RblAware)
      score = static_cast<double>(info.epoch_accesses - info.epoch_row_hits);
    if (score >= cfg_.hot_threshold && !page_table_.count(page))
      candidates.push_back({page, score});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Cand& a, const Cand& b) { return a.score > b.score; });
  if (candidates.size() > cfg_.max_migrations_per_epoch)
    candidates.resize(cfg_.max_migrations_per_epoch);

  // Free slots by demoting cold resident pages (not accessed this epoch).
  std::size_t needed = candidates.size() > free_slots_.size()
                           ? candidates.size() - free_slots_.size()
                           : 0;
  if (needed > 0) {
    std::vector<std::uint64_t> cold;
    for (const auto& [page, slot] : page_table_) {
      const auto it = epoch_info_.find(page);
      if (it == epoch_info_.end() || it->second.epoch_accesses == 0) cold.push_back(page);
      if (cold.size() >= needed) break;
    }
    for (auto page : cold) demote(page, now);
  }

  for (const auto& c : candidates) promote(c.page, now);
  epoch_info_.clear();
}

void HybridMemory::tick(Cycle now) {
  if (now >= next_epoch_) {
    on_epoch(now);
    next_epoch_ = now + cfg_.epoch;
  }
  dram_->tick(now);
  pcm_->tick(now);
}

Cycle HybridMemory::next_event(Cycle now) const {
  // The epoch boundary is included even when on_epoch would be a no-op so
  // next_epoch_ advances on the same schedule in every clock mode.
  Cycle next = std::min(dram_->next_event(now), pcm_->next_event(now));
  next = std::min(next, next_epoch_);
  return next <= now ? now + 1 : next;
}

Cycle HybridMemory::drain(Cycle from, Cycle deadline) {
  if (idle() || from >= deadline) return from;
  const Cycle end = sim::run_event_loop(
      clock_mode_, from, deadline, [this](Cycle now) { tick(now); },
      [this] { return idle(); }, [this](Cycle now) { return next_event(now); });
  return end < deadline ? end + 1 : end;
}

void HybridMemory::set_clock_mode(sim::ClockMode mode) {
  clock_mode_ = mode;
  dram_->set_clock_mode(mode);
  pcm_->set_clock_mode(mode);
}

bool HybridMemory::idle() const { return dram_->idle() && pcm_->idle(); }

}  // namespace ima::hybrid
