#include "mem/memsys.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "common/ckpt.hh"
#include "harness/pool.hh"
#include "harness/sweep.hh"
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
  wake_.resize(ctrls_.size());
  mail_.resize(ctrls_.size());
  set_shards(0);
}

MemorySystem::~MemorySystem() = default;

bool MemorySystem::enqueue(Request req, CompletionCallback cb) {
  const auto coord = mapper_->decode(req.addr);
  if (shards_ > 0) cb = defer_to_mailbox(coord.channel, std::move(cb));
  return ctrls_[coord.channel]->enqueue(req, std::move(cb));
}

inline bool MemorySystem::due(std::size_t c, Cycle now) const {
  const Wake& w = wake_[c];
  return clock_mode_ == sim::ClockMode::PerCycle || now >= w.at ||
         w.stamp != ctrls_[c]->mutation_stamp();
}

void MemorySystem::tick(Cycle now) {
  // Channel order matters: a completion callback that enqueues into a
  // later channel moves its stamp, so that channel still ticks this cycle.
  for (std::size_t c = 0; c < ctrls_.size(); ++c)
    if (due(c, now)) ctrls_[c]->tick(now);
}

Cycle MemorySystem::next_event(Cycle now) const {
  Cycle next = kCycleNever;
  for (std::size_t c = 0; c < ctrls_.size(); ++c) {
    Wake& w = wake_[c];
    const std::uint64_t stamp = ctrls_[c]->mutation_stamp();
    if (w.stamp != stamp || w.at <= now) {
      w.at = ctrls_[c]->next_event(now);
      w.stamp = stamp;
    }
    next = std::min(next, w.at);
  }
  return next;
}

Cycle MemorySystem::drain(Cycle from, Cycle deadline) { return run_drain(from, deadline, nullptr); }

// --- sharded execution ------------------------------------------------------

void MemorySystem::set_shards(unsigned shards, Cycle epoch) {
  // enqueue() decides where a callback fires from the plan at that moment,
  // so switching with work queued would leave an inline callback to fire
  // on a shard worker, or a deferred one in a mailbox nothing delivers.
  if (!quiescent())
    throw std::logic_error(
        "MemorySystem::set_shards: requests are queued, in flight or awaiting "
        "barrier delivery; arm or disarm the shard plan on an idle system");
  shards_ = std::min<unsigned>(shards, static_cast<unsigned>(ctrls_.size()));
  shard_epoch_ = epoch;
  if (shards_ == 0) pool_.reset();
  // Blocks: one inline block without a plan, else one per channel. The
  // partition decides nothing — per-channel execution is block-invariant —
  // only which host thread happens to claim which channel in an epoch.
  blocks_.clear();
  const auto nch = static_cast<std::uint32_t>(ctrls_.size());
  if (shards_ == 0) {
    if (nch > 0) blocks_.push_back(Block{0, nch});
  } else {
    for (std::uint32_t c = 0; c < nch; ++c) blocks_.push_back(Block{c, c + 1});
  }
}

Cycle MemorySystem::shard_epoch() const {
  return shard_epoch_ > 0 ? shard_epoch_ : sim::default_shard_epoch();
}

Cycle MemorySystem::drain_sourced(const ChannelSource& src, Cycle from, Cycle deadline) {
  if (!src.next)
    throw std::logic_error("drain_sourced: ChannelSource::next is required");
  feeds_.assign(ctrls_.size(), Feed{});
  // A fresh source may have work for any channel: every one is fed at `from`.
  for (Wake& w : wake_) w.stamp = kStale;
  // One copy of on_complete per call, outliving it while its requests are
  // in flight: each request's callback then only names (channel, sink).
  if (src.on_complete) {
    sink_ = static_cast<std::uint32_t>(sinks_.size());
    sinks_.push_back(src.on_complete);
  }
  return run_drain(from, deadline, &src);
}

MemorySystem::ChannelSource hashed_source(const MemorySystem& sys, std::uint64_t ops,
                                          std::uint64_t seed, std::uint32_t cores,
                                          std::uint64_t* checksum) {
  MemorySystem::ChannelSource src;
  // Per-channel cursors, each touched only from its channel's shard thread
  // (the ChannelSource contract).
  src.next = [&sys, cursor = std::vector<std::uint64_t>(sys.num_channels(), 0), ops, seed,
              cores](std::uint32_t ch, Cycle, Request& r) mutable {
    std::uint64_t& i = cursor[ch];
    if (i >= ops) return false;
    const auto& g = sys.dram_config().geometry;
    const std::uint64_t h = harness::job_seed(seed, ch * 0x10001ull + i);
    dram::Coord c;
    c.channel = ch;
    c.rank = static_cast<std::uint32_t>(h) % g.ranks;
    c.bank = static_cast<std::uint32_t>(h >> 8) % g.banks;
    c.row = static_cast<std::uint32_t>(h >> 16) % g.rows_per_bank();
    c.column = static_cast<std::uint32_t>(h >> 40) % g.columns;
    r = Request{};
    r.addr = sys.mapper().encode(c);
    r.type = i % 4 == 3 ? AccessType::Write : AccessType::Read;
    r.core = ch % cores;
    ++i;
    return true;
  };
  if (checksum)
    src.on_complete = [checksum](std::uint32_t ch, const Request& done) {
      *checksum = fold_completion(*checksum, ch, done);
    };
  return src;
}

CompletionCallback MemorySystem::defer_to_mailbox(std::uint32_t ch, CompletionCallback cb) {
  if (!cb) return nullptr;
  // Fires exactly once, on the owning shard's thread, into the channel's
  // private mailbox; the barrier delivers it on the coordinator.
  return [this, ch, inner = std::move(cb)](const Request& r) mutable {
    mail_[ch].items.push_back(Mail{r, std::move(inner)});
  };
}

void MemorySystem::deliver_mail() {
  // k-way merge of the per-channel boxes. Each box is already in completion
  // order (retire pops the inflight heap in done order), so repeatedly
  // taking the head with the smallest completion cycle, the lowest channel
  // on ties, yields the canonical (cycle, channel, arrival) order —
  // byte-for-byte the order callbacks fire in as requests retire without a
  // shard plan.
  std::vector<MailHead>& heads = mail_heads_;
  heads.clear();
  for (std::uint32_t ch = 0; ch < mail_.size(); ++ch)
    if (!mail_[ch].items.empty()) heads.push_back({mail_[ch].items.front().req.complete, ch, 0});
  const auto later = [](const MailHead& a, const MailHead& b) {
    return a.complete != b.complete ? a.complete > b.complete : a.ch > b.ch;
  };
  std::make_heap(heads.begin(), heads.end(), later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    MailHead& h = heads.back();
    std::vector<Mail>& items = mail_[h.ch].items;
    const Mail& m = items[h.i];
    if (m.cb) m.cb(m.req);
    else sinks_[m.sink](h.ch, m.req);
    if (++h.i < items.size()) {
      assert(items[h.i].req.complete >= m.req.complete && "mailbox out of completion order");
      h.complete = items[h.i].req.complete;
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      items.clear();
      heads.pop_back();
    }
  }
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
    // never depends on the blocks).
    if (f.pending.arrive > now) break;
    if (!ctrls_[c]->can_accept(f.pending.type, f.pending.core)) break;
    assert(mapper_->decode(f.pending.addr).channel == c &&
           "ChannelSource produced an address outside its channel");
    Request req = std::move(f.pending);
    f.has_pending = false;
    req.arrive = now;
    CompletionCallback cb;
    if (src.on_complete) {
      // Sixteen trivially copyable bytes: std::function stores this inline,
      // so a sourced request allocates nothing for its completion. Without
      // a shard plan the sink fires as the request retires.
      const auto to_sink = [this, c, sink = sink_](const Request& done) {
        if (shards_ > 0) mail_[c].items.push_back(Mail{done, nullptr, sink});
        else sinks_[sink](c, done);
      };
      static_assert(sizeof(to_sink) <= 2 * sizeof(void*) &&
                    std::is_trivially_copyable_v<decltype(to_sink)>);
      cb = to_sink;
    }
    // can_accept passed, so admission cannot fail; a reject here would mean
    // the two checks disagree and the request (plus its callback) would
    // vanish — exactly the silent-loss bug the bool return exists to catch.
    const bool ok = ctrls_[c]->enqueue(std::move(req), std::move(cb));
    assert(ok && "controller rejected a request can_accept() admitted");
    (void)ok;
  }
}

bool MemorySystem::channels_done(std::uint32_t beg, std::uint32_t end,
                                 const ChannelSource* src) const {
  for (std::uint32_t c = beg; c < end; ++c) {
    if (!ctrls_[c]->idle()) return false;
    if (src && (!feeds_[c].exhausted || feeds_[c].has_pending)) return false;
  }
  return true;
}

void MemorySystem::run_block(Block& b, Cycle limit, const ChannelSource* src, bool stoppable) {
  // Per-channel calendar in wake_: a channel is fed and ticked at its own
  // event cycles only (the wake-cache rule tick() uses), never at a busy
  // sibling's, so its tick set is a function of its own state alone,
  // whatever block it lands in and wherever the barriers fall. That
  // independence is what keeps results width- and epoch-invariant.
  const bool per_cycle = clock_mode_ == sim::ClockMode::PerCycle;
  obs::Watchdog* const wd = shards_ == 0 ? watchdog_ : nullptr;  // a plan checks at barriers
  // Locals, not `b`: the loop's stores through controller pointers could
  // alias it.
  const std::uint32_t beg = b.beg, end = b.end;
  Cycle now = b.stop;
  bool done = stoppable && channels_done(beg, end, src);
  while (!done && now < limit) {
    if (wd) wd->iterate(now);
    for (std::uint32_t c = beg; c < end; ++c) {
      if (!due(c, now)) continue;
      if (src) feed_channel(*src, c, now);
      ctrls_[c]->tick(now);
    }
    // Re-arm every channel whose stamp moved: each one ticked above (a tick
    // always moves it), and one visited before an inline callback enqueued
    // into it this cycle.
    Cycle next = kCycleNever;
    for (std::uint32_t c = beg; c < end; ++c) {
      Wake& w = wake_[c];
      if (w.stamp != ctrls_[c]->mutation_stamp()) {
        w.at = per_cycle ? now + 1 : std::max(now + 1, wake(c, now, src != nullptr));
        w.stamp = ctrls_[c]->mutation_stamp();
      }
      next = std::min(next, w.at);
    }
    done = stoppable && channels_done(beg, end, src);
    now = done ? now + 1 : std::min(next, limit);
  }
  b.stop = now;
  b.done = done;
}

Cycle MemorySystem::wake(std::uint32_t c, Cycle now, bool fed) const {
  const Controller& ctrl = *ctrls_[c];
  // A feed leaves the feeder exhausted or holding a request.
  if (fed && feeds_[c].has_pending) {
    const Request& held = feeds_[c].pending;
    // A future-dated request is admitted at exactly its arrival cycle.
    if (held.arrive > now) return std::min(held.arrive, ctrl.next_event(now));
    // A due request the queue rejected: this tick may have freed its slot.
    if (ctrl.can_accept(held.type, held.core)) return now + 1;
    // Still rejected. Queue occupancy (per-core quota included) falls only
    // in a tick that serves a request, which is at or after next_event;
    // until then every feed is a no-op that makes no src.next call and
    // every tick a non-event no-op. So next_event is the exact wake.
  }
  return ctrl.next_event(now);
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

Cycle MemorySystem::run_drain(Cycle from, Cycle deadline, const ChannelSource* src) {
  const unsigned workers = decide_shard_workers();
  shard_workers_used_ = workers;
  if (workers > 1 && (!pool_ || pool_->width() != workers))
    pool_ = std::make_unique<harness::WorkerPool>(workers);
  if (watchdog_ && shards_ > 0)
    watchdog_->set_shard_progress(
        [this](std::vector<obs::ShardProgress>& out) { shard_progress(out); });

  // Advances every block that stands before `until`. Workers claim the
  // blocks from the pool's counter, so one that finishes early takes the
  // next; with none behind `until` there is no dispatch at all.
  const auto advance = [&](Cycle until, bool stoppable) {
    behind_.clear();
    for (std::uint32_t b = 0; b < blocks_.size(); ++b)
      if (blocks_[b].stop < until) behind_.push_back(b);
    const auto one = [&](std::size_t k) { run_block(blocks_[behind_[k]], until, src, stoppable); };
    if (workers > 1)
      pool_->parallel_for(behind_.size(), [&](std::size_t k, unsigned) { one(k); });
    else
      for (std::size_t k = 0; k < behind_.size(); ++k) one(k);
  };
  // Without a plan, callbacks fire inline and a barrier has nothing to do.
  const Cycle epoch = shards_ > 0 ? std::max<Cycle>(shard_epoch(), 1) : kCycleNever;
  const auto nch = static_cast<std::uint32_t>(ctrls_.size());
  Cycle now = from;
  for (Block& b : blocks_) b.stop = now;  // each barrier leaves them all at `now`
  while (now < deadline) {
    const Cycle edge = deadline - now > epoch ? now + epoch : deadline;
    advance(edge, true);
    // Every block ran out of work mid-epoch: the finish is the last stop.
    // Either way, blocks that stopped early catch up on their own events,
    // so every channel stands at the barrier cycle when the mail goes out.
    Cycle target = edge;
    if (std::all_of(blocks_.begin(), blocks_.end(), [](const Block& b) { return b.done; })) {
      target = now;
      for (const Block& b : blocks_) target = std::max(target, b.stop);
    }
    advance(target, false);
    now = target;
    deliver_mail();
    if (watchdog_ && shards_ > 0) watchdog_->check(now);
    if (channels_done(0, nch, src)) break;
  }
  // Quiescent: no sourced request is left to complete, so the retained
  // sinks can go (before a Throw unwinds).
  if (quiescent()) sinks_.clear();
  last_drain_clipped_ = !channels_done(0, nch, src);
  if (!last_drain_clipped_) return now;
  ++drain_clips_;
  if (deadline_policy_ == DeadlinePolicy::Throw) {
    const std::string why =
        "drain deadline exhausted at cycle " + std::to_string(now) +
        " with work still pending (clip #" + std::to_string(drain_clips_) + ")";
    // Route through the watchdog when armed so the failure leaves the same
    // flight-recorder artifact a stall would; otherwise throw bare.
    if (watchdog_) watchdog_->fail(now, why);
    throw obs::WatchdogError(why, "");
  }
  return now;
}

void MemorySystem::shard_progress(std::vector<obs::ShardProgress>& out) const {
  // Per channel, with or without a plan: blocks are claimed by whichever
  // worker comes first, so no sample coarser than a channel names a
  // thread, and a single wedged channel is just as visible either way.
  for (std::uint32_t c = 0; c < ctrls_.size(); ++c)
    out.push_back(obs::ShardProgress{channel_token(c), ctrls_[c]->idle()});
}

bool MemorySystem::idle() const {
  for (const auto& c : ctrls_)
    if (!c->idle()) return false;
  return true;
}

bool MemorySystem::quiescent() const {
  return idle() &&
         std::all_of(mail_.begin(), mail_.end(), [](const Mailbox& b) { return b.items.empty(); });
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

std::uint64_t MemorySystem::channel_token(std::uint32_t c) const {
  // Command state-versions cover every issued DRAM command (including REF
  // and prealls); retire counts cover the data-return side. Any observable
  // forward motion bumps the digest.
  const auto& s = ctrls_[c]->stats();
  return chans_[c]->state_version() + s.reads_done + s.writes_done + s.pim_ops_done;
}

std::uint64_t MemorySystem::progress_token() const {
  std::uint64_t t = 0;
  for (std::uint32_t c = 0; c < num_channels(); ++c) t += channel_token(c);
  return t;
}

template <class Ar>
void MemorySystem::fields(Ar& ar) {
  if (!idle())
    ar.fail(ckpt::ErrorKind::State, "memory system not quiescent: requests queued or inflight");
  for (const Mailbox& box : mail_)
    if (!box.items.empty())
      ar.fail(ckpt::ErrorKind::State,
              "undelivered barrier mailboxes: checkpoint only at an epoch barrier");
  ar.section("memsys");
  ar.match(std::uint64_t{ctrls_.size()}, "channel count");
  ar(last_drain_clipped_, drain_clips_, *data_);
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
