#include "sim/system.hh"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "common/ckpt.hh"
#include "common/env.hh"
#include "obs/stat_registry.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "obs/watchdog.hh"

namespace ima::sim {

const char* to_string(PrefetchKind k) {
  switch (k) {
    case PrefetchKind::None: return "none";
    case PrefetchKind::NextLine: return "next-line";
    case PrefetchKind::Stride: return "stride";
    case PrefetchKind::Ghb: return "ghb-delta";
    case PrefetchKind::FilteredStride: return "filtered-stride";
    case PrefetchKind::Feedback: return "feedback-stride";
  }
  return "?";
}

System::System(const SystemConfig& cfg,
               std::vector<std::unique_ptr<workloads::AccessStream>> streams)
    : cfg_(cfg) {
  assert(streams.size() == cfg.num_cores);
  mem_ = std::make_unique<mem::MemorySystem>(cfg.dram, cfg.ctrl, cfg.map);
  mem_->set_clock_mode(cfg.clock);  // drains on memory() follow the system's mode
  for (std::uint32_t i = 0; i < cfg.num_cores; ++i) {
    cache::CacheConfig l1cfg = cfg.l1;
    l1cfg.seed = cfg.l1.seed + i;
    l1s_.push_back(std::make_unique<cache::Cache>(l1cfg));
  }
  l2_ = std::make_unique<cache::Cache>(cfg.l2);

  switch (cfg.prefetch) {
    case PrefetchKind::None: prefetcher_ = cache::make_no_prefetcher(); break;
    case PrefetchKind::NextLine: prefetcher_ = cache::make_next_line(2); break;
    case PrefetchKind::Stride: prefetcher_ = cache::make_stride(); break;
    case PrefetchKind::Ghb: prefetcher_ = cache::make_ghb_delta(); break;
    case PrefetchKind::FilteredStride: {
      auto filtered = std::make_unique<cache::FilteredPrefetcher>(cache::make_stride());
      trainable_ = filtered.get();
      prefetcher_ = std::move(filtered);
      break;
    }
    case PrefetchKind::Feedback: {
      auto fb = std::make_unique<cache::FeedbackPrefetcher>();
      trainable_ = fb.get();
      prefetcher_ = std::move(fb);
      break;
    }
  }

  for (std::uint32_t i = 0; i < cfg.num_cores; ++i)
    cores_.push_back(std::make_unique<core::SimpleCore>(i, std::move(streams[i]), *this, cfg.core));
}

System::~System() = default;

obs::TraceSink& System::enable_trace(std::size_t capacity) {
  if (!trace_ || trace_->capacity() != capacity) {
    trace_ = std::make_unique<obs::TraceSink>(capacity);
    mem_->set_trace(trace_.get());
  }
  return *trace_;
}

void System::register_stats(obs::StatRegistry& reg, const std::string& prefix) const {
  const obs::StatRegistry::OwnerScope scope(reg, stats_alive_);
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const std::string core_prefix = obs::join_path(prefix, "core" + std::to_string(i));
    const auto& cs = cores_[i]->stats();
    reg.counter(obs::join_path(core_prefix, "instructions"), &cs.instructions);
    reg.counter(obs::join_path(core_prefix, "loads"), &cs.loads);
    reg.counter(obs::join_path(core_prefix, "stores"), &cs.stores);
    reg.counter(obs::join_path(core_prefix, "stall_cycles"), &cs.stall_cycles);
    reg.counter(obs::join_path(core_prefix, "runahead_prefetches"), &cs.runahead_prefetches);
    l1s_[i]->register_stats(reg, obs::join_path(core_prefix, "l1"));
  }
  l2_->register_stats(reg, obs::join_path(prefix, "l2"));
  const std::string pf = obs::join_path(prefix, "prefetch");
  reg.counter(obs::join_path(pf, "issued"), &pf_stats_.issued);
  reg.counter(obs::join_path(pf, "useful"), &pf_stats_.useful);
  reg.counter(obs::join_path(pf, "useless"), &pf_stats_.useless);
  prefetcher_->register_stats(reg, pf);
  mem_->register_stats(reg, obs::join_path(prefix, "mem"));
}

void System::enqueue_mem_write(Addr addr) {
  mem::Request wr;
  wr.addr = addr;
  wr.type = AccessType::Write;
  wr.core = 0;  // writebacks are not attributed to a core
  wr.arrive = now_;
  if (!mem_->can_accept(addr, AccessType::Write) || !mem_->enqueue(wr)) {
    pending_writes_.push_back(addr);
  }
}

void System::flush_pending_writes() {
  while (!pending_writes_.empty()) {
    const Addr a = pending_writes_.front();
    mem::Request wr;
    wr.addr = a;
    wr.type = AccessType::Write;
    wr.arrive = now_;
    if (!mem_->can_accept(a, AccessType::Write) || !mem_->enqueue(wr)) return;
    pending_writes_.pop_front();
  }
}

void System::retire_prefetched(Addr line, bool useful) {
  if (prefetched_.erase(line) == 0) return;
  ++(useful ? pf_stats_.useful : pf_stats_.useless);
  IMA_TRACE(trace_.get(), .cycle = now_,
            .kind = useful ? obs::EventKind::PrefetchUseful : obs::EventKind::PrefetchUseless,
            .arg0 = line, .name = useful ? "pf-useful" : "pf-useless");
  std::uint64_t pc = 0;
  if (const auto it = prefetch_pc_.find(line); it != prefetch_pc_.end()) {
    pc = it->second;
    prefetch_pc_.erase(it);
  }
  if (trainable_) {
    if (useful) trainable_->notify_useful(line, pc);
    else trainable_->notify_useless(line, pc);
  }
}

void System::handle_l1_victim(std::uint32_t /*core*/, const cache::Cache::FillResult& fr) {
  if (!fr.evicted || !fr.evicted_dirty) return;
  // Dirty L1 victim writes back into L2; its own victim may cascade to DRAM.
  const auto l2fr = l2_->fill(*fr.evicted, /*dirty=*/true);
  if (l2fr.evicted) {
    retire_prefetched(*l2fr.evicted, /*useful=*/false);
    if (l2fr.evicted_dirty) enqueue_mem_write(*l2fr.evicted);
  }
}

void System::issue_prefetches(Addr addr, std::uint64_t pc, bool was_miss) {
  std::vector<cache::PrefetchRequest> candidates;
  prefetcher_->observe(addr, pc, was_miss, candidates);
  for (const auto& c : candidates) {
    const Addr line = line_base(c.addr);
    if (l2_->contains(line)) continue;
    if (!mem_->can_accept(line, AccessType::Read)) continue;
    mem::Request pf;
    pf.addr = line;
    pf.type = AccessType::Read;
    pf.arrive = now_;
    const std::uint64_t cpc = c.pc;
    const bool ok = mem_->enqueue(pf, [this, line, cpc](const mem::Request&) {
      const auto fr = l2_->fill(line, /*dirty=*/false);
      prefetched_.insert(line);
      prefetch_pc_[line] = cpc;
      if (fr.evicted) {
        retire_prefetched(*fr.evicted, /*useful=*/false);
        if (fr.evicted_dirty) enqueue_mem_write(*fr.evicted);
      }
    });
    if (ok) {
      ++pf_stats_.issued;
      IMA_TRACE(trace_.get(), .cycle = now_, .kind = obs::EventKind::PrefetchIssue,
                .arg0 = line, .arg1 = cpc, .name = "pf-issue");
    }
  }
}

std::optional<Cycle> System::issue(std::uint32_t core, const workloads::TraceEntry& access,
                                   Cycle now, std::function<void(Cycle)> done,
                                   bool speculative) {
  const Addr line = line_base(access.addr);
  cache::Cache& l1 = *l1s_[core];

  if (speculative) {
    // Runahead prefetch: warm the L2 without touching architected state.
    if (l1.contains(line) || l2_->contains(line)) return now + 1;
    if (!mem_->can_accept(line, AccessType::Read)) return std::nullopt;
    mem::Request pf;
    pf.addr = line;
    pf.type = AccessType::Read;
    pf.core = core;
    pf.arrive = now;
    const bool ok = mem_->enqueue(pf, [this, line](const mem::Request&) {
      const auto fr = l2_->fill(line, /*dirty=*/false);
      if (fr.evicted && fr.evicted_dirty) enqueue_mem_write(*fr.evicted);
    });
    if (!ok) return std::nullopt;
    return now + 1;
  }

  // Peek whether this will need a DRAM read before mutating cache state, so
  // a full memory queue can be reported as "retry" without side effects.
  const bool l1_would_hit = l1.contains(line);
  const bool l2_would_hit = l2_->contains(line);
  const bool needs_dram_read =
      access.type == AccessType::Read && !l1_would_hit && !l2_would_hit;
  if (needs_dram_read && !mem_->can_accept(line, AccessType::Read, core)) return std::nullopt;

  const auto l1res = l1.access(line, access.type);
  if (l1res.hit) return now + cfg_.l1.hit_latency;
  handle_l1_victim(core, l1res.fill);

  if (access.type == AccessType::Write) {
    // No-fetch write allocate: the L1 line is now valid+dirty; nothing else
    // to do. (Write data reaches DRAM via the writeback chain.)
    issue_prefetches(line, access.pc, /*was_miss=*/!l2_would_hit);
    return now + cfg_.l1.hit_latency;
  }

  const auto l2res = l2_->access(line, AccessType::Read);
  if (l2res.hit) {
    retire_prefetched(line, /*useful=*/true);
    issue_prefetches(line, access.pc, /*was_miss=*/false);
    return now + cfg_.l2.hit_latency;
  }
  if (l2res.fill.evicted) {
    retire_prefetched(*l2res.fill.evicted, /*useful=*/false);
    if (l2res.fill.evicted_dirty) enqueue_mem_write(*l2res.fill.evicted);
  }

  // Demand read first: it must claim the queue slot reserved by the
  // can_accept check above before prefetches can consume the remaining
  // capacity (a dropped demand enqueue would lose the wake-up callback and
  // wedge the core forever).
  mem::Request rd;
  rd.addr = line;
  rd.type = AccessType::Read;
  rd.core = core;
  rd.arrive = now;
  const Cycle l2lat = cfg_.l2.hit_latency;
  const bool ok = mem_->enqueue(rd, [done = std::move(done), l2lat](const mem::Request& r) {
    done(r.complete + l2lat);
  });
  assert(ok && "can_accept was checked above");
  (void)ok;

  issue_prefetches(line, access.pc, /*was_miss=*/true);
  return kCycleNever;
}

obs::Watchdog& System::arm_watchdog(std::uint64_t stall_cycles) {
  obs::Watchdog::Config wcfg;
  if (stall_cycles > 0) wcfg.stall_cycles = stall_cycles;
  watchdog_ = std::make_unique<obs::Watchdog>(wcfg);
  // Private registry: the artifact's stats snapshot must not depend on
  // whether the embedding harness registered this system anywhere.
  wd_registry_ = std::make_unique<obs::StatRegistry>();
  register_stats(*wd_registry_);
  watchdog_->set_registry(wd_registry_.get());
  if (trace_) watchdog_->set_trace(trace_.get());
  watchdog_->set_progress([this] {
    std::uint64_t t = mem_->progress_token();
    for (const auto& c : cores_)
      t += c->stats().instructions + c->stats().stall_cycles;
    return t;
  });
  // Per-channel stall anchors, with or without a shard plan: one wedged
  // channel fires even while the summed token keeps rising.
  watchdog_->set_shard_progress(
      [this](std::vector<obs::ShardProgress>& out) { mem_->shard_progress(out); });
  watchdog_->add_dump("memory", [this](std::ostream& os, Cycle now) { mem_->dump(os, now); });
  watchdog_->add_dump("cores", [this](std::ostream& os, Cycle now) {
    for (const auto& c : cores_) c->dump(os, now);
    os << "pending_writes=" << pending_writes_.size() << "\n";
  });
  // Escalation: a fire at a quiescent point (fail() from a drain deadline
  // at an epoch barrier) leaves a restorable checkpoint beside the
  // artifact; mid-epoch the save refuses and the artifact records why.
  watchdog_->set_checkpoint_writer([this](const std::string& path) { save(path); });
  mem_->set_watchdog(watchdog_.get());
  return *watchdog_;
}

Cycle System::run(Cycle max_cycles) {
  if (!watchdog_) {
    if (const std::uint64_t n = env_uint("IMA_WATCHDOG").value_or(0); n > 0) arm_watchdog(n);
  }
  Cycle last_ticked = kCycleNever;
  const auto tick = [this, &last_ticked](Cycle now) {
    // Sample *before* any state mutation: skipped cycles are state-neutral,
    // so pre-tick sampling sees the same values in every clock mode.
    if (timeseries_) timeseries_->advance(now);
    now_ = now;
    last_ticked = now;
    mem_->tick(now);
    // Writeback retries only happen on cycles where any are pending — the
    // event kernel never wakes just for an empty deque.
    if (!pending_writes_.empty()) flush_pending_writes();
    for (auto& c : cores_) c->tick(now);
  };
  const auto done = [this] {
    for (const auto& c : cores_)
      if (!c->done()) return false;
    return true;
  };
  const auto next = [this](Cycle now) { return next_event(now); };
  const Cycle end =
      watchdog_ ? sim::run_event_loop(cfg_.clock, now_, max_cycles, tick, done, next,
                                      [this](Cycle now) { watchdog_->iterate(now); })
                : sim::run_event_loop(cfg_.clock, now_, max_cycles, tick, done, next);
  // Truncated at the limit with the next event beyond it: the per-cycle
  // reference's final tick lands on max_cycles-1, so replay it here to
  // bring time-accumulating stats (core stall/retire counts) up to the
  // cut-off. Eventless by construction, hence cycle-exact.
  if (end == max_cycles && last_ticked != kCycleNever && last_ticked + 1 < max_cycles)
    tick(max_cycles - 1);
  now_ = end;
  // Boundaries between the last tick and the end cycle see no further state
  // changes; flushing them here keeps the sample stream end identical
  // across clock modes.
  if (timeseries_) timeseries_->advance(end);
  return now_;
}

Cycle System::next_event(Cycle now) const {
  if (!pending_writes_.empty()) return now + 1;
  Cycle next = mem_->next_event(now);
  for (const auto& c : cores_) next = std::min(next, c->next_event(now));
  return next;
}

System::EnergyBreakdown System::energy() const {
  EnergyBreakdown e;
  std::uint64_t instrs = 0;
  for (const auto& c : cores_) instrs += c->stats().instructions;
  e.compute = static_cast<double>(instrs) * cfg_.e_instr;

  std::uint64_t l1_accesses = 0;
  for (const auto& c : l1s_) l1_accesses += c->stats().hits + c->stats().misses;
  const std::uint64_t l2_accesses = l2_->stats().hits + l2_->stats().misses;
  e.cache = static_cast<double>(l1_accesses) * cfg_.e_l1_access +
            static_cast<double>(l2_accesses) * cfg_.e_l2_access;

  for (std::uint32_t ch = 0; ch < mem_->num_channels(); ++ch) {
    e.dram_dynamic += mem_->controller(ch).channel().stats().cmd_energy;
    e.dram_background += mem_->controller(ch).channel().background_energy(now_);
  }
  return e;
}

std::vector<double> System::core_ipcs() const {
  std::vector<double> out;
  out.reserve(cores_.size());
  for (const auto& c : cores_) out.push_back(c->stats().ipc(now_ ? now_ : 1));
  return out;
}

template <class Ar>
void System::fields(Ar& ar) {
  ar.section("system");
  // Config fingerprint: a restore target built from a different wiring
  // would otherwise deserialize garbage into the wrong components.
  ar.match(std::uint64_t{cfg_.num_cores}, "core count");
  ar.match(std::string(to_string(cfg_.prefetch)), "prefetcher kind");
  ar(now_, *mem_);  // the memory system throws State unless quiescent
  for (auto& l1 : l1s_) ar(*l1);
  ar(*l2_);
  for (auto& c : cores_) ar(*c);
  ar(*prefetcher_, pending_writes_, prefetched_, prefetch_pc_, pf_stats_);
}
IMA_CKPT_FIELDS(System);

void System::save(const std::string& path) const { ckpt::save(*this, path); }

void System::restore(const std::string& path) { ckpt::restore(*this, path); }

}  // namespace ima::sim
