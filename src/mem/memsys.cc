#include "mem/memsys.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <ostream>
#include <stdexcept>

#include "common/ckpt.hh"
#include "harness/pool.hh"
#include "obs/stat_registry.hh"
#include "obs/watchdog.hh"

namespace ima::mem {

MemorySystem::MemorySystem(const dram::DramConfig& dram_cfg, const ControllerConfig& ctrl_cfg,
                           dram::MapScheme scheme)
    : dram_cfg_(dram_cfg) {
  data_ = std::make_unique<dram::DataStore>(dram_cfg.geometry);
  mapper_ = std::make_unique<dram::AddressMapper>(dram_cfg.geometry, scheme);
  for (std::uint32_t ch = 0; ch < dram_cfg.geometry.channels; ++ch) {
    chans_.push_back(std::make_unique<dram::Channel>(dram_cfg, ch, data_.get()));
    ctrls_.push_back(std::make_unique<Controller>(*chans_.back(), *mapper_, ctrl_cfg));
  }
}

MemorySystem::~MemorySystem() = default;

bool MemorySystem::enqueue(Request req, CompletionCallback cb) {
  const auto coord = mapper_->decode(req.addr);
  if (shards_ > 0) cb = defer_to_mailbox(coord.channel, std::move(cb));
  return ctrls_[coord.channel]->enqueue(req, std::move(cb));
}

void MemorySystem::tick(Cycle now) {
  for (auto& c : ctrls_) c->tick(now);
}

Cycle MemorySystem::next_event(Cycle now) const {
  Cycle next = kCycleNever;
  for (const auto& c : ctrls_) next = std::min(next, c->next_event(now));
  return next;
}

Cycle MemorySystem::drain(Cycle from, Cycle deadline) {
  if (shards_ > 0) return drain_epochs(from, deadline, nullptr);
  // Legacy shape: check idle *before* each tick, return last-ticked + 1.
  if (idle() || from >= deadline) {
    note_drain_end(/*clipped=*/!idle(), /*quantized=*/false, from);
    return from;
  }
  const auto tick_fn = [this](Cycle now) { tick(now); };
  const auto done_fn = [this] { return idle(); };
  const auto next_fn = [this](Cycle now) { return next_event(now); };
  const Cycle end =
      watchdog_ ? sim::run_event_loop(clock_mode_, from, deadline, tick_fn, done_fn,
                                      next_fn,
                                      [this](Cycle now) { watchdog_->iterate(now); })
                : sim::run_event_loop(clock_mode_, from, deadline, tick_fn, done_fn,
                                      next_fn);
  const Cycle ret = end < deadline ? end + 1 : end;
  note_drain_end(/*clipped=*/!idle(), /*quantized=*/false, ret);
  return ret;
}

void MemorySystem::note_drain_end(bool clipped, bool quantized, Cycle now) {
  last_drain_quantized_ = quantized;
  last_drain_clipped_ = clipped;
  if (!clipped) return;
  ++drain_clips_;
  if (deadline_policy_ != DeadlinePolicy::Throw) return;
  const std::string why =
      "drain deadline exhausted at cycle " + std::to_string(now) +
      " with work still pending (clip #" + std::to_string(drain_clips_) + ")";
  // Route through the watchdog when armed so the failure leaves the same
  // flight-recorder artifact a stall would; otherwise throw bare.
  if (watchdog_) watchdog_->fail(now, why);
  throw obs::WatchdogError(why, "");
}

// --- sharded execution ------------------------------------------------------

void MemorySystem::set_shards(unsigned shards, Cycle epoch) {
  shards_ = std::min<unsigned>(shards, static_cast<unsigned>(ctrls_.size()));
  shard_epoch_ = epoch;
  if (shards_ == 0) {
    pool_.reset();
    groups_.clear();
  }
}

Cycle MemorySystem::shard_epoch() const {
  return shard_epoch_ > 0 ? shard_epoch_ : sim::default_shard_epoch();
}

Cycle MemorySystem::drain_sourced(const ChannelSource& src, Cycle from, Cycle deadline) {
  if (shards_ == 0)
    throw std::logic_error("drain_sourced requires an armed shard plan (set_shards)");
  if (!src.next)
    throw std::logic_error("drain_sourced: ChannelSource::next is required");
  feeds_.assign(ctrls_.size(), Feed{});
  return drain_epochs(from, deadline, &src);
}

CompletionCallback MemorySystem::defer_to_mailbox(std::uint32_t ch, CompletionCallback cb) {
  if (!cb) return nullptr;
  if (mail_.size() != ctrls_.size()) mail_.resize(ctrls_.size());
  // Fires exactly once, on the owning shard's thread, into the channel's
  // private mailbox; the barrier delivers it on the coordinator.
  return [this, ch, inner = std::move(cb)](const Request& r) {
    mail_[ch].push_back(Mail{r, inner});
  };
}

void MemorySystem::deliver_mail() {
  if (mail_.empty()) return;
  mail_order_.clear();
  for (std::uint32_t ch = 0; ch < mail_.size(); ++ch)
    for (std::uint32_t i = 0; i < mail_[ch].size(); ++i) mail_order_.emplace_back(ch, i);
  if (mail_order_.empty()) return;
  // Per-channel boxes are already completion-ordered (retire pops the
  // inflight heap in done order), and the scratch list is built in channel
  // order, so a stable sort on the completion cycle yields the canonical
  // (cycle, channel, arrival) order — byte-for-byte the legacy serial
  // callback order.
  std::stable_sort(mail_order_.begin(), mail_order_.end(),
                   [this](const auto& a, const auto& b) {
                     return mail_[a.first][a.second].req.complete <
                            mail_[b.first][b.second].req.complete;
                   });
  for (const auto& [ch, i] : mail_order_) {
    Mail& m = mail_[ch][i];
    m.cb(m.req);
  }
  for (auto& box : mail_) box.clear();
}

void MemorySystem::feed_channel(const ChannelSource& src, std::uint32_t c, Cycle now) {
  Feed& f = feeds_[c];
  while (!f.exhausted) {
    if (!f.has_pending) {
      Request r;
      if (!src.next(c, now, r)) {
        f.exhausted = true;
        break;
      }
      f.pending = std::move(r);
      f.has_pending = true;
    }
    // Time-dated feed: a future-dated request is held here until its cycle
    // comes (the held request is this channel's state alone, so the hold
    // never depends on shard grouping).
    if (f.pending.arrive > now) break;
    if (!ctrls_[c]->can_accept(f.pending.type, f.pending.core)) break;
    assert(mapper_->decode(f.pending.addr).channel == c &&
           "ChannelSource produced an address outside its channel");
    Request req = std::move(f.pending);
    f.has_pending = false;
    req.arrive = now;
    CompletionCallback cb;
    if (src.on_complete) {
      cb = [fn = src.on_complete, c](const Request& done) { fn(c, done); };
    }
    // can_accept passed, so admission cannot fail; a reject here would mean
    // the two checks disagree and the request (plus its callback) would
    // vanish — exactly the silent-loss bug the bool return exists to catch.
    const bool ok = ctrls_[c]->enqueue(std::move(req), defer_to_mailbox(c, std::move(cb)));
    assert(ok && "controller rejected a request can_accept() admitted");
    (void)ok;
  }
}

void MemorySystem::run_shard_span(std::size_t g, Cycle from, Cycle limit,
                                  const ChannelSource* src) {
  const auto [beg, end] = groups_[g];
  const auto tick_fn = [&](Cycle now) {
    for (std::uint32_t c = beg; c < end; ++c) {
      if (src) feed_channel(*src, c, now);
      ctrls_[c]->tick(now);
    }
  };
  const auto next_fn = [&](Cycle now) {
    Cycle nxt = kCycleNever;
    for (std::uint32_t c = beg; c < end; ++c) {
      if (src && !feeds_[c].exhausted) {
        const Feed& f = feeds_[c];
        // A future-dated held request lets the channel skip ahead to its
        // arrival cycle; otherwise a live feeder runs per-cycle — "when can
        // the queue accept again" has no cheap closed form. Either way the
        // channel's tick set is a function of its own feed state alone —
        // never of which group (and so which union of event cycles) it
        // shares. That independence is what keeps results width-invariant.
        if (!f.has_pending || f.pending.arrive <= now) return now + 1;
        nxt = std::min(nxt, f.pending.arrive);
      }
      nxt = std::min(nxt, ctrls_[c]->next_event(now));
    }
    return nxt;
  };
  // done is never true: every shard runs the full epoch span so idle-early
  // shards keep ticking refresh/power state exactly like the legacy global
  // loop does while other channels stay busy.
  sim::run_event_loop(clock_mode_, from, limit, tick_fn, [] { return false; }, next_fn);
}

unsigned MemorySystem::decide_shard_workers() const {
  unsigned want = shards_;
  if (want <= 1) return 1;
  // Nested in a sweep job: the pool is already saturated — run the epochs
  // inline rather than oversubscribing shards-per-job x jobs threads.
  if (harness::WorkerPool::on_worker()) return 1;
  // A trace sink is one shared ring across all controllers; keep its
  // writers on one thread (results are width-invariant, so this only
  // changes the host-thread count).
  if (trace_attached_) return 1;
  // One HammerVictimModel shared by several controllers would see
  // cross-shard on_act calls; collapse rather than race.
  for (std::size_t i = 0; i < ctrls_.size(); ++i) {
    const auto* m = ctrls_[i]->victim_model();
    if (!m) continue;
    for (std::size_t j = i + 1; j < ctrls_.size(); ++j)
      if (ctrls_[j]->victim_model() == m) return 1;
  }
  return want;
}

Cycle MemorySystem::drain_epochs(Cycle from, Cycle deadline, const ChannelSource* src) {
  if (!src && idle()) {
    note_drain_end(/*clipped=*/false, /*quantized=*/true, from);
    return from;
  }
  if (from >= deadline) {
    // A zero-length window with work pending (queued requests or a live
    // source) is a degenerate clip, not a clean finish.
    note_drain_end(/*clipped=*/true, /*quantized=*/true, from);
    return from;
  }
  if (mail_.size() != ctrls_.size()) mail_.resize(ctrls_.size());

  // Shard groups: `shards_` contiguous channel blocks. The partition is
  // part of the simulated configuration (it decides nothing — per-channel
  // execution is group-invariant — but keeping it fixed per plan makes the
  // engine's behaviour easy to reason about); only the host-thread width
  // below varies with context.
  groups_.clear();
  const auto nch = static_cast<std::uint32_t>(ctrls_.size());
  for (unsigned g = 0; g < shards_; ++g) {
    const std::uint32_t beg = static_cast<std::uint32_t>(std::uint64_t{nch} * g / shards_);
    const std::uint32_t end =
        static_cast<std::uint32_t>(std::uint64_t{nch} * (g + 1) / shards_);
    if (beg < end) groups_.emplace_back(beg, end);
  }

  const unsigned workers = decide_shard_workers();
  shard_workers_used_ = workers;
  if (workers > 1 && (!pool_ || pool_->width() != workers))
    pool_ = std::make_unique<harness::WorkerPool>(workers);
  if (watchdog_)
    watchdog_->set_shard_progress(
        [this](std::vector<obs::ShardProgress>& out) { shard_progress(out); });

  const auto run_shards = [&](Cycle begin, Cycle end) {
    if (workers > 1) {
      pool_->parallel_for(groups_.size(), [&](std::size_t g, unsigned) {
        run_shard_span(g, begin, end, src);
      });
    } else {
      for (std::size_t g = 0; g < groups_.size(); ++g) run_shard_span(g, begin, end, src);
    }
  };
  const auto barrier = [&](Cycle now) {
    deliver_mail();
    if (watchdog_) watchdog_->check(now);
  };
  const auto done = [&] {
    if (!idle()) return false;
    if (src)
      for (const Feed& f : feeds_)
        if (!f.exhausted || f.has_pending) return false;
    return true;
  };
  const Cycle end =
      sim::run_epoch_barriers(from, deadline, shard_epoch(), run_shards, barrier, done);
  note_drain_end(/*clipped=*/!done(), /*quantized=*/true, end);
  return end;
}

void MemorySystem::shard_progress(std::vector<obs::ShardProgress>& out) const {
  const auto sample = [this](std::uint32_t beg, std::uint32_t end) {
    obs::ShardProgress p;
    p.idle = true;
    for (std::uint32_t c = beg; c < end; ++c) {
      const auto& s = ctrls_[c]->stats();
      p.token += chans_[c]->state_version() + s.reads_done + s.writes_done + s.pim_ops_done;
      if (!ctrls_[c]->idle()) p.idle = false;
    }
    return p;
  };
  if (!groups_.empty()) {
    for (const auto& [beg, end] : groups_) out.push_back(sample(beg, end));
    return;
  }
  // No shard plan: per-channel granularity, so a single wedged channel in
  // an unsharded run is just as visible.
  for (std::uint32_t c = 0; c < ctrls_.size(); ++c) out.push_back(sample(c, c + 1));
}

bool MemorySystem::idle() const {
  for (const auto& c : ctrls_)
    if (!c->idle()) return false;
  return true;
}

void MemorySystem::poke(Addr addr, std::span<const std::uint8_t> bytes) {
  // Byte-granularity functional write through line-granularity data store.
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const Addr a = addr + offset;
    const Addr base = line_base(a);
    const auto coord = mapper_->decode(base);
    std::uint64_t line[kLineBytes / 8];
    data_->read_line(coord, line);
    auto* raw = reinterpret_cast<std::uint8_t*>(line);
    const std::size_t in_line = a - base;
    const std::size_t n = std::min<std::size_t>(kLineBytes - in_line, bytes.size() - offset);
    std::memcpy(raw + in_line, bytes.data() + offset, n);
    data_->write_line(coord, line);
    // A functional write is fresh data: the reliability engine clears any
    // outstanding corruption/poison and re-encodes tracked check bits.
    if (coord.channel < ctrls_.size()) {
      if (auto* e = ctrls_[coord.channel]->reliability_engine()) e->on_write(coord, 0);
    }
    offset += n;
  }
}

void MemorySystem::peek(Addr addr, std::span<std::uint8_t> bytes) const {
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const Addr a = addr + offset;
    const Addr base = line_base(a);
    const auto coord = mapper_->decode(base);
    std::uint64_t line[kLineBytes / 8];
    data_->read_line(coord, line);
    const auto* raw = reinterpret_cast<const std::uint8_t*>(line);
    const std::size_t in_line = a - base;
    const std::size_t n = std::min<std::size_t>(kLineBytes - in_line, bytes.size() - offset);
    std::memcpy(bytes.data() + offset, raw + in_line, n);
    offset += n;
  }
}

std::uint64_t MemorySystem::peek_u64(Addr addr) const {
  std::uint64_t v = 0;
  peek(addr, std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&v), sizeof(v)));
  return v;
}

void MemorySystem::poke_u64(Addr addr, std::uint64_t value) {
  poke(addr, std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(&value),
                                           sizeof(value)));
}

PicoJoule MemorySystem::total_energy(Cycle now) const {
  PicoJoule e = 0;
  for (const auto& c : ctrls_) e += c->total_energy(now);
  return e;
}

Controller::Stats MemorySystem::aggregate_stats() const {
  Controller::Stats agg;
  for (const auto& c : ctrls_) {
    const auto& s = c->stats();
    agg.reads_done += s.reads_done;
    agg.writes_done += s.writes_done;
    agg.row_hits += s.row_hits;
    agg.row_misses += s.row_misses;
    agg.row_conflicts += s.row_conflicts;
    agg.pim_ops_done += s.pim_ops_done;
    agg.victim_refreshes += s.victim_refreshes;
    agg.enqueue_rejects += s.enqueue_rejects;
  }
  return agg;
}

void MemorySystem::register_stats(obs::StatRegistry& reg, const std::string& prefix) const {
  const obs::StatRegistry::OwnerScope scope(reg, stats_alive_);
  reg.counter(obs::join_path(prefix, "drain_deadline_clips"), &drain_clips_);
  for (std::size_t i = 0; i < ctrls_.size(); ++i) {
    ctrls_[i]->register_stats(reg, obs::join_path(prefix, "ctrl" + std::to_string(i)));
    chans_[i]->register_stats(reg, obs::join_path(prefix, "chan" + std::to_string(i)));
  }
}

void MemorySystem::set_trace(obs::TraceSink* sink) {
  // Controllers forward to their channel and scheduler. The sink is one
  // shared ring: while attached, sharded drains collapse to one host thread
  // (decide_shard_workers) so its writers never race.
  trace_attached_ = sink != nullptr;
  for (auto& c : ctrls_) c->set_trace(sink);
}

std::uint64_t MemorySystem::progress_token() const {
  // Command state-versions cover every issued DRAM command (including REF
  // and prealls); retire counts cover the data-return side. Any observable
  // forward motion bumps the digest.
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < ctrls_.size(); ++i) {
    const auto& s = ctrls_[i]->stats();
    t += chans_[i]->state_version() + s.reads_done + s.writes_done + s.pim_ops_done;
  }
  return t;
}

template <class Ar>
void MemorySystem::fields(Ar& ar) {
  if (!idle())
    ar.fail(ckpt::ErrorKind::State, "memory system not quiescent: requests queued or inflight");
  for (const auto& box : mail_)
    if (!box.empty())
      ar.fail(ckpt::ErrorKind::State,
              "undelivered barrier mailboxes: checkpoint only at an epoch barrier");
  ar.section("memsys");
  ar.match(std::uint64_t{ctrls_.size()}, "channel count");
  ar(last_drain_clipped_, last_drain_quantized_, drain_clips_, *data_);
  for (auto& c : chans_) ar(*c);
  for (auto& c : ctrls_) ar(*c);
  // Borrowed victim models, each distinct model exactly once in first-
  // controller order (sharing topology is construction-derived, so the
  // restore target walks the same sequence).
  std::vector<HammerVictimModel*> models;
  for (auto& c : ctrls_) {
    HammerVictimModel* m = c->victim_model();
    if (m && std::find(models.begin(), models.end(), m) == models.end()) models.push_back(m);
  }
  ar.match(std::uint64_t{models.size()}, "victim model count");
  for (auto* m : models) ar(*m);
}
IMA_CKPT_FIELDS(MemorySystem);

void MemorySystem::dump(std::ostream& os, Cycle now) const {
  for (std::size_t i = 0; i < ctrls_.size(); ++i) {
    ctrls_[i]->dump(os, now);
    chans_[i]->dump(os, now);
  }
}

}  // namespace ima::mem
