#include "mem/controller.hh"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "common/ckpt.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"

namespace ima::mem {

// Tombstone-compaction threshold for the request queues (serve()): a queue
// vector holds at most queue_size live + kCompactDead dead entries, so the
// constructor can reserve the high-water mark once and steady-state
// enqueue/compaction never reallocates.
constexpr std::size_t kCompactDead = 16;

void QueueOcc::reset(std::size_t unit_count, std::size_t cores) {
  cnt.assign(unit_count, Unit{});
  units.clear();
  units.reserve(unit_count);
  core_live.assign(cores, 0);
  live = 0;
}

void QueueOcc::add(std::uint32_t unit, std::uint32_t core, bool match) {
  if (cnt[unit].total++ == 0) {
    // Sorted insertion of a newly occupied unit. Unit ids carry the rank in
    // their high bits, so iterating in id order groups ranks and the
    // kernel's scan_gates memo fires once per rank.
    units.insert(std::lower_bound(units.begin(), units.end(), unit), unit);
  }
  if (match) ++cnt[unit].match;
  if (core >= core_live.size()) core_live.resize(std::size_t{core} + 1, 0);
  ++core_live[core];
  ++live;
}

void QueueOcc::remove(std::uint32_t unit, std::uint32_t core) {
  assert(cnt[unit].total > 0 && core_live[core] > 0 && live > 0);
  --cnt[unit].match;
  if (--cnt[unit].total == 0)
    units.erase(std::lower_bound(units.begin(), units.end(), unit));
  --core_live[core];
  --live;
}

void QueueOcc::rebuild(const dram::Channel& chan, const std::vector<QueuedRequest>& q,
                       const QueueScanMeta* meta) {
  for (const std::uint32_t u : units) cnt[u] = Unit{};
  units.clear();
  std::fill(core_live.begin(), core_live.end(), 0);
  live = 0;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const QueueScanMeta& m = meta[i];
    if (!(m.flags & QueueScanMeta::kLive)) continue;
    add(m.unit, q[i].core, chan.unit_open(m.unit) && chan.unit_row(m.unit) == m.row);
  }
}

Controller::Controller(dram::Channel& chan, const dram::AddressMapper& mapper,
                       const ControllerConfig& cfg)
    : chan_(chan), mapper_(mapper), cfg_(cfg), cores_(cfg.num_cores) {
  read_q_.reserve(cfg.read_queue_size + kCompactDead);
  write_q_.reserve(cfg.write_queue_size + kCompactDead);
  read_meta_.reserve(cfg.read_queue_size + kCompactDead);
  write_meta_.reserve(cfg.write_queue_size + kCompactDead);
  for (QueueOcc& oc : occ_) oc.reset(chan.unit_count(), cfg.num_cores);
  // Every live slot is queued or inflight, and one burst issues per cycle
  // and completes within a fixed latency, so the pool rarely outgrows the
  // combined queue capacity: reserving that up front makes growth a cold
  // path.
  slots_.reserve(cfg.read_queue_size + cfg.write_queue_size);
  free_slots_.reserve(cfg.read_queue_size + cfg.write_queue_size);
  rank_last_activity_.assign(chan.config().geometry.ranks, 0);
  rank_work_.assign(chan.config().geometry.ranks, 0);
  if (cfg.record_spans) spans_ = std::make_unique<SpanRecorders>();
  sched_ = make_scheduler(cfg.sched, cfg.num_cores, cfg.seed);
  sched_pick_pure_ = sched_->pick_is_pure();
  refresh_ = make_all_bank_refresh(chan.config());
  if (cfg.reliability.enabled)
    engine_ = std::make_unique<reliability::Engine>(chan, cfg.reliability);

  // Route every activation (including PUM-internal ones) through the
  // RowHammer machinery when present. The reliability engine observes
  // first: a late row refresh must inject the decay the row accumulated
  // *before* stamping it restored.
  chan_.set_act_hook([this](const dram::Coord& c, Cycle now) {
    if (engine_) engine_->on_act(c, now);
    if (victim_model_) victim_model_->on_act(c);
    if (mitigation_) {
      victims_buf_.clear();
      mitigation_->on_act(c, now, victims_buf_);
      for (const auto& v : victims_buf_) {
        victim_q_.push_back(v);
        ++rank_work_[v.rank];
      }
    }
  });
  chan_.set_ref_hook([this](std::uint32_t rank, Cycle now) {
    if (engine_) engine_->on_blanket_ref(rank, now);
    if (victim_model_) victim_model_->on_ref_command();
    // Mitigation per-window state resets on the same tREFW cadence as the
    // cells themselves; trackers count REFs internally if they need to.
    if (mitigation_ && ++refs_for_mitigation_ >= 8192) {
      refs_for_mitigation_ = 0;
      mitigation_->on_refresh_window();
    }
    // The hook fires inside issue(Ref), before the policy re-arms its due
    // time, so blocked_since() still reports the window being closed.
    if (spans_) attribute_refresh_block(rank, now);
  });
}

void Controller::set_scheduler(std::unique_ptr<Scheduler> sched) {
  ++mutation_stamp_;
  sched_ = std::move(sched);
  sched_pick_pure_ = sched_->pick_is_pure();
  sched_->set_trace(trace_);
}

void Controller::set_trace(obs::TraceSink* sink) {
  trace_ = sink;
  chan_.set_trace(sink);
  sched_->set_trace(sink);
  if (engine_) engine_->set_trace(sink);
}

void Controller::set_refresh_policy(std::unique_ptr<RefreshPolicy> refresh) {
  ++mutation_stamp_;
  refresh_ = std::move(refresh);
}

void Controller::set_rowhammer(std::unique_ptr<RowHammerMitigation> mitigation) {
  ++mutation_stamp_;
  mitigation_ = std::move(mitigation);
}

void Controller::set_victim_model(HammerVictimModel* model) {
  ++mutation_stamp_;
  victim_model_ = model;
  // Close the loop: threshold crossings corrupt the real victim row's bits
  // when the reliability engine models hammer flips.
  if (victim_model_ && engine_ && engine_->config().hammer_flips) {
    victim_model_->set_flip_sink(
        [this](const dram::Coord& victim) { engine_->on_hammer_flip(victim); });
  }
}

bool Controller::enqueue(Request req, CompletionCallback cb) {
  if (!can_accept(req.type, req.core)) {
    ++stats_.enqueue_rejects;
    return false;
  }
  const bool is_read = req.type == AccessType::Read;
  auto& q = is_read ? read_q_ : write_q_;
  auto& meta = is_read ? read_meta_ : write_meta_;
  req.id = next_req_id_++;
  QueuedRequest qr;
  qr.coord = mapper_.decode(req.addr);
  qr.slot = claim_slot(req, std::move(cb));
  qr.arrive = req.arrive;
  qr.core = req.core;
  qr.type = req.type;
  assert(qr.coord.channel == chan_.id() && "request routed to wrong channel");
  if (req.core < cores_.size()) ++cores_[req.core].outstanding;
  ++rank_work_[qr.coord.rank];
  // Keep the queue in arrival order (Scheduler::pick). Requests are
  // stamped with their enqueue cycle, so this is an append; an
  // earlier-stamped arrival goes after the last entry, tombstone or not,
  // stamped no later, and its scan meta moves in lockstep.
  const QueueScanMeta m = scan_meta(chan_, qr);
  if (q.empty() || req.arrive >= q.back().arrive) {
    q.push_back(qr);
    meta.push_back(m);
  } else {
    const auto before = [](Cycle a, const QueuedRequest& e) { return a < e.arrive; };
    const auto pos = std::upper_bound(q.begin(), q.end(), req.arrive, before);
    meta.insert(meta.begin() + (pos - q.begin()), m);
    q.insert(pos, qr);
  }
  QueueOcc& oc = occ_[is_read ? 0 : 1];
  oc.add(m.unit, req.core, chan_.unit_open(m.unit) && chan_.unit_row(m.unit) == m.row);
  ++queue_stamp_[is_read ? 0 : 1];
  ++mutation_stamp_;
  // This queue's stashed min does not cover the new request.
  issue_min_valid_[is_read ? 0 : 1] = false;
  return true;
}

std::uint32_t Controller::claim_slot(const Request& req, CompletionCallback cb) {
  std::uint32_t s;
  if (free_slots_.empty()) {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    s = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[s].req = req;
  slots_[s].cb = std::move(cb);
  return s;
}

void Controller::enqueue_pim(PimOp op) {
  ++mutation_stamp_;
  ++rank_work_[op.bank.rank];
  pim_q_.push_back(std::move(op));
}

void Controller::retire(Cycle now) {
  while (!inflight_.empty() && inflight_.front().done <= now) {
    std::pop_heap(inflight_.begin(), inflight_.end(), std::greater<>{});
    const Inflight top = inflight_.back();
    inflight_.pop_back();
    // Move the request and its callback out and free the slot before the
    // callback runs: it may enqueue into this controller, which can claim
    // this very slot or grow the pool under any reference into it.
    Slot& slot = slots_[top.slot];
    Request req = slot.req;
    CompletionCallback cb;
    cb.swap(slot.cb);
    free_slots_.push_back(top.slot);
    req.complete = top.done;
    if (req.type == AccessType::Read) {
      ++stats_.reads_done;
      stats_.read_latency.add(top.done - req.arrive);
      if (spans_) {
        // Integer stage decomposition; the four stages sum to done - arrive
        // exactly (refresh = blocked_queue + blocked_prep):
        //   queue + blocked_queue = first_cmd - arrive
        //   stall + blocked_prep  = served - first_cmd
        //   xfer                  = done - served
        const Request& r = req;
        const Cycle fc = r.first_cmd == kCycleNever ? r.arrive : r.first_cmd;
        const Cycle sv = r.served == kCycleNever ? top.done : r.served;
        spans_->queue.add((fc - r.arrive) - r.blocked_queue);
        spans_->stall.add((sv - fc) - r.blocked_prep);
        spans_->refresh.add(r.blocked_queue + r.blocked_prep);
        spans_->xfer.add(top.done - sv);
      }
    } else {
      ++stats_.writes_done;
    }
    if (req.core < cores_.size()) {
      auto& core = cores_[req.core];
      ++core.served;
      if (core.outstanding > 0) --core.outstanding;
    }
    if (cb) cb(req);
  }
}

bool Controller::try_issue_victim_refresh(Cycle now) {
  if (victim_q_.empty()) return false;
  // By value: issue(RefRow) fires the activate hook, which may push fresh
  // victims and grow the ring under this element.
  const dram::Coord c = victim_q_.front();
  if (chan_.bank_open(c)) {
    if (!chan_.can_issue(dram::Cmd::Pre, c, now)) return false;
    chan_.issue(dram::Cmd::Pre, c, now);
    return true;
  }
  if (!chan_.can_issue(dram::Cmd::RefRow, c, now)) return false;
  IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::VictimRefresh,
            .pid = static_cast<std::uint16_t>(chan_.id()),
            .tid = static_cast<std::uint16_t>(c.rank * chan_.config().geometry.banks + c.bank),
            .arg0 = c.row);
  chan_.issue(dram::Cmd::RefRow, c, now);
  ++stats_.victim_refreshes;
  --rank_work_[c.rank];
  victim_q_.pop_front();
  return true;
}

bool Controller::try_issue_pim(Cycle now) {
  if (pim_q_.empty()) return false;
  PimOp& op = pim_q_.front();
  if (chan_.bank_open(op.bank)) {
    if (!chan_.can_issue(dram::Cmd::Pre, op.bank, now)) return false;
    chan_.issue(dram::Cmd::Pre, op.bank, now);
    return true;
  }
  if (!chan_.can_issue(op.cmd, op.bank, now)) return false;
  const Cycle latency = chan_.pim_latency(op.cmd, op.args);
  chan_.issue_pim(op.cmd, op.bank, op.args, now);
  ++stats_.pim_ops_done;
  // Move out before the callback: on_done may enqueue another PIM op and
  // grow the ring, invalidating this front reference. The call order
  // (callback, then accounting, then pop) is unchanged.
  const std::uint32_t op_rank = op.bank.rank;
  auto on_done = std::move(op.on_done);
  if (on_done) on_done(now + latency);
  --rank_work_[op_rank];
  pim_q_.pop_front();
  return true;
}

void Controller::classify_first_touch(QueuedRequest& qr) {
  if (qr.classified) return;
  qr.classified = true;
  if (!chan_.bank_open(qr.coord)) ++stats_.row_misses;
  else if (chan_.open_row(qr.coord) == qr.coord.row) ++stats_.row_hits;
  else ++stats_.row_conflicts;
}

void Controller::serve(std::vector<QueuedRequest>& q, std::size_t idx, dram::Cmd cmd, Cycle now) {
  QueuedRequest& qr = q[idx];
  Request& req = slots_[qr.slot].req;
  const auto& tm = chan_.config().timings;
  Cycle done = cmd == dram::Cmd::Rd ? now + tm.cl + tm.bl : now + tm.cwl + tm.bl;

  if (engine_) {
    if (cmd == dram::Cmd::Rd) {
      const auto rr = engine_->on_read(qr.coord, now);
      done += rr.extra_latency;  // ECC decode sits on the return path
      req.poisoned = rr.poisoned;
    } else {
      engine_->on_write(qr.coord, now);
      done += engine_->write_penalty();
    }
  }

  IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::SchedDecision,
            .pid = static_cast<std::uint16_t>(chan_.id()),
            .tid = static_cast<std::uint16_t>(qr.core), .arg0 = req.id,
            .arg1 = qr.coord.row,
            .name = cmd == dram::Cmd::Rd ? "serve-rd" : "serve-wr");

  const bool is_read = &q == &read_q_;
  sched_->on_service(qr, view(now, is_read));
  if (qr.core < cores_.size()) {
    cores_[qr.core].attained_service += tm.bl;
    ++cores_[qr.core].served_in_quantum;
  }
  req.served = now;
  inflight_.push_back(Inflight{done, qr.slot});
  std::push_heap(inflight_.begin(), inflight_.end(), std::greater<>{});
  // Tombstone in place instead of a middle-of-vector erase: the entry keeps
  // its index (scheduler ties break by index, so survivors must not
  // shift until a *stable* compaction) and the hot path stops paying
  // O(queue) element moves per served request.
  qr.marked = false;
  --rank_work_[qr.coord.rank];
  ++queue_stamp_[is_read ? 0 : 1];
  std::vector<QueueScanMeta>& meta = is_read ? read_meta_ : write_meta_;
  meta[idx].flags = 0;
  QueueOcc& oc = occ_[is_read ? 0 : 1];
  oc.remove(meta[idx].unit, qr.core);
  if (q.size() - oc.live >= kCompactDead) {
    // Stable in-place compaction of the queue and its scan metadata in
    // lockstep (remove_if is stable; this is the same survivor order).
    std::size_t w = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!(meta[i].flags & QueueScanMeta::kLive)) continue;
      if (w != i) {
        q[w] = q[i];
        meta[w] = meta[i];
      }
      ++w;
    }
    q.resize(w);
    meta.resize(w);
  }
}

void Controller::refresh_unit_occ(std::uint32_t unit) {
  // An ACT changed which row this unit exposes: recount, per queue, how
  // many live requests at the unit target it. total is untouched (ACT
  // neither adds nor removes requests); closed units never reach here
  // (match is unused until the next ACT recomputes it).
  const bool open = chan_.unit_open(unit);
  const std::uint32_t row = open ? chan_.unit_row(unit) : 0;
  for (std::size_t qi = 0; qi < 2; ++qi) {
    QueueOcc& oc = occ_[qi];
    if (oc.cnt[unit].total == 0) {
      oc.cnt[unit].match = 0;
      continue;
    }
    std::uint32_t m = 0;
    if (open) {
      const auto& meta = qi == 0 ? read_meta_ : write_meta_;
      // total bounds how many live entries the unit holds — stop at
      // the last one instead of sweeping the whole queue.
      std::uint32_t remaining = oc.cnt[unit].total;
      for (const QueueScanMeta& e : meta) {
        if (!(e.flags & QueueScanMeta::kLive) || e.unit != unit) continue;
        if (e.row == row) ++m;
        if (--remaining == 0) break;
      }
    }
    oc.cnt[unit].match = m;
  }
}

Cycle Controller::queue_kernel_min(std::size_t qi, Cycle now) const {
  Cycle qmin = kCycleNever;
  const QueueOcc& oc = occ_[qi];
  std::uint32_t gates_rank = ~0u;
  dram::Channel::ScanGates g{};
  for (const std::uint32_t u : oc.units) {
    const QueueOcc::Unit c = oc.cnt[u];
    const std::uint32_t rank = chan_.unit_rank(u);
    if (rank != gates_rank) {
      gates_rank = rank;
      g = chan_.scan_gates(rank, now);
    }
    if (!g.active) continue;  // asleep: every command is kCycleNever
    if (!chan_.unit_open(u)) {
      qmin = std::min(qmin, chan_.earliest_act_at(u, g));
      continue;
    }
    if (c.match > 0)
      qmin = std::min(qmin, qi == 0 ? chan_.earliest_rd_at(u, g)
                                    : chan_.earliest_wr_at(u, g));
    if (c.total > c.match)
      qmin = std::min(qmin, chan_.earliest_pre_at(u, g));
  }
  return qmin;
}

Cycle Controller::stashed_issue_min(std::size_t qi, Cycle now) const {
  // While the version matches (no channel mutation) and the valid flag
  // holds (no enqueue), the stash is not merely a bound — it is exact for
  // any later cycle. Every kernel term is max(now, h) with h fixed under
  // the version, so min over the queue is max(now, stash): callers that
  // clamp to now + 1 (next_event) or compare against now (pick elision)
  // get precisely the recomputed answer without the scan.
  const std::uint64_t ver = chan_.state_version();
  if (issue_min_valid_[qi] && issue_min_version_[qi] == ver) return issue_min_[qi];
  issue_min_[qi] = queue_kernel_min(qi, now);
  issue_min_version_[qi] = ver;
  issue_min_valid_[qi] = true;
  return issue_min_[qi];
}

void Controller::update_drain_mode() {
  const std::size_t writes = occ_[1].live;
  if (draining_writes_) {
    if (writes <= cfg_.write_drain_low) draining_writes_ = false;
  } else if (writes >= cfg_.write_drain_high) {
    draining_writes_ = true;
  }
}

bool Controller::try_issue_request(Cycle now) {
  const std::size_t reads = occ_[0].live, writes = occ_[1].live;
  update_drain_mode();
  const bool use_writes = draining_writes_ || (reads == 0 && writes > 0);
  if (try_issue_from(use_writes ? write_q_ : read_q_, now)) return true;
  // If the scheduler declined every read (e.g. a QoS/sampling policy is
  // holding them back), drain writes opportunistically instead of idling —
  // otherwise held-back writers can deadlock against a non-empty read queue.
  if (!use_writes && writes > 0) return try_issue_from(write_q_, now);
  return false;
}

bool Controller::try_issue_from(std::vector<QueuedRequest>& q, Cycle now) {
  const bool is_read = &q == &read_q_;
  const std::size_t qi = is_read ? 0 : 1;
  if (occ_[qi].live == 0) return false;

  const SchedView v = view(now, is_read);
  sched_->tick(v, q);
  // Proven-idle skip: while the stashed queue-kernel min lies in the
  // future, no queued command of this queue is legal, so a pick could only
  // return a request the issuable() gate below rejects — with zero state
  // change. Eliding the scan is observably identical for pure picks;
  // impure policies (RL) keep their exact call cadence.
  if (sched_pick_pure_ && stashed_issue_min(qi, now) > now) return false;
  const std::size_t idx = sched_->pick(q, v);
  if (idx == kNoPick) return false;
  assert(idx < q.size() && v.live(idx));

  QueuedRequest& qr = q[idx];
  if (refresh_->rank_blocked(qr.coord.rank, now)) return false;

  const dram::Cmd cmd = v.required_cmd(idx);
  if (!v.issuable(idx)) return false;
  classify_first_touch(qr);
  Cycle& first_cmd = slots_[qr.slot].req.first_cmd;
  if (first_cmd == kCycleNever) first_cmd = now;
  rank_last_activity_[qr.coord.rank] = now;

  if (cmd == dram::Cmd::Pre && cfg_.charge_cache) {
    // The row being closed stays charged for a while: remember it.
    charge_cache_insert(qr.coord, chan_.open_row(qr.coord), now);
    chan_.issue(cmd, qr.coord, now);
    return true;
  }
  if (cmd == dram::Cmd::Act && cfg_.charge_cache && charge_cache_hit(qr.coord, now)) {
    chan_.issue_act_charged(qr.coord, now);
    refresh_unit_occ(chan_.unit_of(qr.coord));
    return true;
  }
  chan_.issue(cmd, qr.coord, now);
  // The one mutation that redefines which queued rows match the open row:
  // an ACT installing a (possibly different) row at this unit.
  if (cmd == dram::Cmd::Act) refresh_unit_occ(chan_.unit_of(qr.coord));
  if (cmd == dram::Cmd::Rd || cmd == dram::Cmd::Wr) serve(q, idx, cmd, now);
  return true;
}

std::uint64_t Controller::charge_key(const dram::Coord& c, std::uint32_t row) const {
  // Packing derived from the geometry, not a hard-coded 64-bank / 32-bit
  // width: injective for every valid configuration, so charge-cache entries
  // of distinct (rank, bank, row) triples can never alias.
  const auto& g = chan_.config().geometry;
  return (static_cast<std::uint64_t>(c.rank) * g.banks + c.bank) * g.rows_per_bank() + row;
}

void Controller::charge_cache_insert(const dram::Coord& c, std::uint32_t row, Cycle now) {
  const std::uint64_t key = charge_key(c, row);
  const std::uint64_t stamp = ++charge_stamp_;
  charge_map_[key] = ChargeEntry{now + cfg_.charge_retention, stamp};
  charge_fifo_.emplace_back(key, stamp);
  // Lazy compaction: drop stale FIFO fronts (key re-inserted with a newer
  // stamp, or erased on a hit) so they never evict live entries.
  while (!charge_fifo_.empty()) {
    const auto [k, s] = charge_fifo_.front();
    const auto it = charge_map_.find(k);
    if (it != charge_map_.end() && it->second.stamp == s) break;
    charge_fifo_.pop_front();
  }
  // Bounded capacity: evict the oldest live entries.
  while (charge_map_.size() > cfg_.charge_cache_entries && !charge_fifo_.empty()) {
    const auto [k, s] = charge_fifo_.front();
    charge_fifo_.pop_front();
    const auto it = charge_map_.find(k);
    if (it != charge_map_.end() && it->second.stamp == s) charge_map_.erase(it);
  }
}

bool Controller::charge_cache_hit(const dram::Coord& c, Cycle now) {
  const auto it = charge_map_.find(charge_key(c, c.row));
  if (it == charge_map_.end() || it->second.expiry < now) {
    ++stats_.charge_cache_misses;
    return false;
  }
  // The activation itself restores full charge bookkeeping; drop the entry
  // (it is re-inserted at the next precharge).
  charge_map_.erase(it);
  ++stats_.charge_cache_hits;
  return true;
}

void Controller::manage_power(Cycle now) {
  const std::uint32_t ranks = chan_.config().geometry.ranks;
  // Runs before this cycle's refresh tick, so it sees the refresh schedule
  // as the previous cycle left it.
  const auto blocked = [&](std::uint32_t r) {
    return now > 0 && refresh_->rank_blocked(r, now - 1);
  };
  // rank_work_ (maintained on enqueue/dequeue) replaces the per-tick
  // occupancy scan over all four queues.
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const auto state = chan_.rank_power(r);
    // Power-down does not maintain the cells: wake for due refreshes
    // (self-refresh handles them internally and stays asleep). Idle time
    // keeps accumulating across refresh naps, so the rank re-enters sleep
    // — or deepens to self-refresh — right after the REF drains.
    if (state == dram::Channel::PowerState::PowerDown && blocked(r)) {
      chan_.wake_rank(r, now);
      ++stats_.rank_wakes;
      IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::PowerState,
                .pid = static_cast<std::uint16_t>(chan_.id()),
                .tid = static_cast<std::uint16_t>(r), .name = "wake");
      continue;
    }
    if (rank_work_[r] > 0) {
      if (state != dram::Channel::PowerState::Active) {
        // A self-refreshing rank maintained its own cells until now: let
        // the refresh policy re-arm its due time before normal scheduling
        // resumes (identical in both clock modes — see refresh.hh).
        if (state == dram::Channel::PowerState::SelfRefresh)
          refresh_->on_rank_wake(r, now);
        chan_.wake_rank(r, now);
        ++stats_.rank_wakes;
        IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::PowerState,
                  .pid = static_cast<std::uint16_t>(chan_.id()),
                  .tid = static_cast<std::uint16_t>(r), .name = "wake");
        rank_last_activity_[r] = now;
      }
      continue;
    }
    if (now <= rank_last_activity_[r]) continue;
    if (blocked(r)) continue;  // let the pending REF go first
    const Cycle idle = now - rank_last_activity_[r];
    if (cfg_.selfrefresh_timeout && idle >= cfg_.selfrefresh_timeout &&
        state != dram::Channel::PowerState::SelfRefresh) {
      if (chan_.all_banks_closed(r)) {
        chan_.enter_power_state(r, dram::Channel::PowerState::SelfRefresh, now);
        ++stats_.selfrefreshes;
        IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::PowerState,
                  .pid = static_cast<std::uint16_t>(chan_.id()),
                  .tid = static_cast<std::uint16_t>(r), .name = "selfrefresh");
      }
    } else if (cfg_.powerdown_timeout && idle >= cfg_.powerdown_timeout &&
               state == dram::Channel::PowerState::Active) {
      if (chan_.all_banks_closed(r)) {
        chan_.enter_power_state(r, dram::Channel::PowerState::PowerDown, now);
        ++stats_.powerdowns;
        IMA_TRACE(trace_, .cycle = now, .kind = obs::EventKind::PowerState,
                  .pid = static_cast<std::uint16_t>(chan_.id()),
                  .tid = static_cast<std::uint16_t>(r), .name = "powerdown");
      }
    }
  }
}

Cycle Controller::next_event(Cycle now) const {
  // Conservative lower bound on the next cycle where ticking could change
  // state. Sound because between visited cycles nothing else runs: queue
  // contents, bank state and service accounting are all frozen unless one
  // of the terms fires first (DESIGN.md "Issue-loop fast path"). The
  // inflight head is the retire term; every other term is the rest of the
  // tick's, cached while it stands (rest_holds).
  const Cycle head = inflight_.empty() ? kCycleNever : inflight_.front().done;
  Cycle rest;
  if (rest_holds(now)) {
    rest = rest_at_;
  } else {
    rest = rest_event(now);
    if (rest > now + 1) {
      rest_at_ = rest;
      rest_stamp_ = mutation_stamp_;
      rest_version_ = chan_.state_version();
    }
  }
  const Cycle next = std::min(head, rest);
  return next <= now ? now + 1 : next;
}

Cycle Controller::rest_event(Cycle now) const {
  // Once the running min collapses to <= now + 1 no later term can lower
  // it further (the caller clamps to now + 1), so every section below may
  // return immediately — under saturation the queue scan usually stops
  // within a handful of entries.
  const bool queued =
      occ_[0].live > 0 || occ_[1].live > 0 || !pim_q_.empty() || !victim_q_.empty();

  Cycle next = refresh_->next_event(now);
  if (engine_) next = std::min(next, engine_->next_event(now));
  if (next <= now + 1) return now + 1;

  if (queued) {
    // Time-triggered policy state (quantum/shuffle boundaries, blacklist
    // clears, per-cycle sampling or learning) must never be skipped past.
    next = std::min(next, sched_->next_event(now));
    if (next <= now + 1) return now + 1;
    // Head-of-queue legality for the priority queues (they are strictly
    // in-order, so only the head can act).
    if (!victim_q_.empty()) {
      const dram::Coord& c = victim_q_.front();
      next = std::min(next, chan_.earliest(
          chan_.bank_open(c) ? dram::Cmd::Pre : dram::Cmd::RefRow, c, now));
    }
    if (!pim_q_.empty()) {
      const PimOp& op = pim_q_.front();
      next = std::min(next, chan_.earliest(
          chan_.bank_open(op.bank) ? dram::Cmd::Pre : op.cmd, op.bank, now));
    }
    if (next <= now + 1) return now + 1;
    // Earliest legal cycle of each queued access's required command — a
    // lower bound on any pick the scheduler could convert into an issue.
    // Both queues always count: the drain-hysteresis flip and the
    // opportunistic write fallback can select either one at the next
    // issue opportunity.
    //
    // Occupancy-count SoA kernel: the per-queue QueueOcc counts (see
    // controller.hh) already know, per occupied unit, how many live
    // requests sit there and how many target the open row, so the fold
    // visits occupied units — O(banks touched), no per-request classify
    // pass. A closed unit contributes its ACT earliest; an open one its
    // RD/WR earliest when match > 0 and its PRE earliest when some queued
    // row mismatches. Identical to the per-request v.earliest() scan by
    // construction — the counts encode exactly which command classes the
    // queue's requests need at each unit.
    //
    // The fold is stashed (issue_min_, see controller.hh): while nothing
    // that feeds it moved, repeat calls reuse the stashed min instead of
    // re-scanning — on stall stretches (injector-forced visits, held-back
    // queues) this collapses next_event to a version compare. Reuse
    // requires stash > now + 1: a reusable-but-clamping value would return
    // now + 1 here forever without ever recomputing a tighter bound.
    next = std::min(next, stashed_issue_min(0, now));
    next = std::min(next, stashed_issue_min(1, now));
    if (next <= now + 1) return now + 1;
  }

  // Rank power management: threshold crossings for idle ranks, a next-tick
  // wake for sleeping ranks holding queued work (earliest() returned
  // kCycleNever for those — manage_power wakes them on the next tick).
  if (cfg_.powerdown_timeout || cfg_.selfrefresh_timeout) {
    const std::uint32_t ranks = chan_.config().geometry.ranks;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      const auto state = chan_.rank_power(r);
      if (rank_work_[r] > 0) {
        if (state != dram::Channel::PowerState::Active) return now + 1;
        continue;  // busy Active rank: stale idle timer must not clamp us
      }
      if (!chan_.all_banks_closed(r)) continue;
      const Cycle rla = rank_last_activity_[r];
      if (cfg_.selfrefresh_timeout && state != dram::Channel::PowerState::SelfRefresh)
        next = std::min(next, rla + cfg_.selfrefresh_timeout);
      if (cfg_.powerdown_timeout && state == dram::Channel::PowerState::Active)
        next = std::min(next, rla + cfg_.powerdown_timeout);
    }
  }
  return next;
}

void Controller::attribute_refresh_block(std::uint32_t rank, Cycle now) {
  // The rank was command-blocked over [blocked_since, now): rank_blocked()
  // gated try_issue_from the whole window, so every live queued request of
  // the rank lost those cycles to refresh, not to queueing or timing.
  const Cycle since = refresh_->blocked_since(rank);
  if (since == kCycleNever || since >= now) return;
  const auto charge = [&](const std::vector<QueuedRequest>& q,
                          const std::vector<QueueScanMeta>& meta) {
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!(meta[i].flags & QueueScanMeta::kLive) || q[i].coord.rank != rank) continue;
      // Half-open per-request window, clamped to the arrival and to the end
      // of any previously charged window (REF catch-up backlogs can issue
      // several REFs whose raw windows overlap).
      Request& r = slots_[q[i].slot].req;
      const Cycle start = std::max({since, r.arrive, r.blocked_mark});
      if (start >= now) continue;
      const Cycle blocked = now - start;
      if (r.first_cmd == kCycleNever) r.blocked_queue += blocked;
      else r.blocked_prep += blocked;
      r.blocked_mark = now;
    }
  };
  charge(read_q_, read_meta_);
  charge(write_q_, write_meta_);
}

void Controller::dump(std::ostream& os, Cycle now) const {
  os << "controller chan" << chan_.id() << " @ cycle " << now << "\n"
     << "  read_q: " << occ_[0].live << " live / " << read_q_.size()
     << " slots, write_q: " << occ_[1].live << " live / " << write_q_.size()
     << " slots" << (draining_writes_ ? " (draining writes)" : "") << "\n"
     << "  inflight: " << inflight_.size() << ", victim_q: " << victim_q_.size()
     << ", pim_q: " << pim_q_.size() << "\n";
  const auto dump_q = [&](const char* name, const std::vector<QueuedRequest>& q,
                          const std::vector<QueueScanMeta>& meta) {
    constexpr std::size_t kMaxEntries = 32;
    std::size_t shown = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!(meta[i].flags & QueueScanMeta::kLive)) continue;
      if (++shown > kMaxEntries) {
        os << "  " << name << "[...] (truncated)\n";
        break;
      }
      const QueuedRequest& qr = q[i];
      const Request& r = slots_[qr.slot].req;
      os << "  " << name << " id=" << r.id << " addr=0x" << std::hex << r.addr << std::dec
         << " rank=" << qr.coord.rank << " bank=" << qr.coord.bank << " row=" << qr.coord.row
         << " arrive=" << r.arrive << " first_cmd=";
      if (r.first_cmd == kCycleNever) os << "-";
      else os << r.first_cmd;
      os << " waited=" << (now - r.arrive) << "\n";
    }
  };
  dump_q("read", read_q_, read_meta_);
  dump_q("write", write_q_, write_meta_);
  refresh_->dump(os, now);
  const std::uint32_t ranks = chan_.config().geometry.ranks;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    os << "  rank" << r << ": work=" << rank_work_[r]
       << " blocked=" << (refresh_->rank_blocked(r, now) ? "yes" : "no")
       << " last_activity=" << rank_last_activity_[r] << "\n";
  }
}

void Controller::tick(Cycle now) {
  // Before the cached rest-of-tick wake, a tick can only retire and step
  // the write-drain hysteresis (DESIGN.md "Issue-loop fast path",
  // retire-only ticks): retire writes nothing the rest reads, so unless a
  // completion callback enqueued into this controller, the rest would
  // change nothing and the cache still holds under the new stamp.
  const bool retire_only = rest_holds(now);
  const std::uint64_t stamp = ++mutation_stamp_;
  retire(now);
  if (retire_only && mutation_stamp_ == stamp) {
    rest_stamp_ = stamp;
    update_drain_mode();
    return;
  }
  if (cfg_.powerdown_timeout || cfg_.selfrefresh_timeout) manage_power(now);
  if (refresh_->tick(chan_, now)) return;
  if (try_issue_victim_refresh(now)) return;
  if (try_issue_pim(now)) return;
  // Patrol scrub borrows the command slot after correctness-critical work
  // (refresh, victim refreshes, PIM order) but ahead of demand requests:
  // its pacing owes so few rows per window that demand stalls are noise,
  // and letting demand starve it would defeat the sweep guarantee.
  if (engine_ && engine_->scrub_tick(now)) return;
  try_issue_request(now);
}

template <class Ar>
void Controller::fields(Ar& ar) {
  if (!idle())
    ar.fail(ckpt::ErrorKind::State, "controller not quiescent: queued or inflight requests");
  if constexpr (Ar::loading) ++mutation_stamp_;  // restored state: recompute next_event
  ar.section("controller");
  // Config fingerprint: a restore target must be constructed identically
  // (same channel, core count, and installed policies).
  ar.match(std::uint64_t{chan_.id()}, "channel id");
  ar.match(std::uint64_t{cfg_.num_cores}, "core count");
  ar.match(sched_->name(), "scheduler");
  ar.match(refresh_->name(), "refresh policy");
  ar.match(mitigation_ != nullptr, "RowHammer mitigation present");
  if (mitigation_) ar.match(mitigation_->name(), "RowHammer mitigation");
  ar.match(engine_ != nullptr, "reliability engine present");
  ar.match(cfg_.record_spans, "record_spans");

  // At a quiescent point the request queues, inflight heap, victim/PIM
  // rings and the per-core/per-rank occupancy counters derived from them
  // are all empty or zero — exactly the state a fresh construction holds —
  // so only the durable accounting below travels.
  for (CoreState& c : cores_) ar(c);
  ar(next_req_id_, stats_);
  if (spans_) ar(*spans_);
  ar(charge_map_, charge_fifo_, charge_stamp_);
  ar.fixed(rank_last_activity_, "rank count");
  ar(refs_for_mitigation_, draining_writes_, *sched_, *refresh_);
  if (mitigation_) ar(*mitigation_);
  if (engine_) ar(*engine_);
}
IMA_CKPT_FIELDS(Controller);

void Controller::register_stats(obs::StatRegistry& reg, const std::string& prefix) const {
  reg.counter(obs::join_path(prefix, "reads_done"), &stats_.reads_done);
  reg.counter(obs::join_path(prefix, "writes_done"), &stats_.writes_done);
  reg.counter(obs::join_path(prefix, "row_hits"), &stats_.row_hits);
  reg.counter(obs::join_path(prefix, "row_misses"), &stats_.row_misses);
  reg.counter(obs::join_path(prefix, "row_conflicts"), &stats_.row_conflicts);
  reg.counter(obs::join_path(prefix, "pim_ops_done"), &stats_.pim_ops_done);
  reg.counter(obs::join_path(prefix, "victim_refreshes"), &stats_.victim_refreshes);
  reg.counter(obs::join_path(prefix, "enqueue_rejects"), &stats_.enqueue_rejects);
  reg.counter(obs::join_path(prefix, "charge_cache_hits"), &stats_.charge_cache_hits);
  reg.counter(obs::join_path(prefix, "charge_cache_misses"), &stats_.charge_cache_misses);
  reg.counter(obs::join_path(prefix, "powerdowns"), &stats_.powerdowns);
  reg.counter(obs::join_path(prefix, "selfrefreshes"), &stats_.selfrefreshes);
  reg.counter(obs::join_path(prefix, "rank_wakes"), &stats_.rank_wakes);
  if (spans_) {
    // Full latency-report shape, plus the per-stage recorders. The
    // non-percentile read_latency paths carry the exact values running()
    // would have registered (TailRecorder embeds the same RunningStat).
    reg.tail(obs::join_path(prefix, "read_latency"), &stats_.read_latency);
    reg.tail(obs::join_path(prefix, "span.queue"), &spans_->queue);
    reg.tail(obs::join_path(prefix, "span.stall"), &spans_->stall);
    reg.tail(obs::join_path(prefix, "span.refresh"), &spans_->refresh);
    reg.tail(obs::join_path(prefix, "span.xfer"), &spans_->xfer);
  } else {
    // Spans off: register exactly the pre-telemetry paths so every
    // existing BENCH artifact stays byte-identical.
    reg.running(obs::join_path(prefix, "read_latency"), &stats_.read_latency.stat());
  }
  reg.gauge(obs::join_path(prefix, "read_queue_depth"),
            [this] { return static_cast<double>(occ_[0].live); });
  reg.gauge(obs::join_path(prefix, "write_queue_depth"),
            [this] { return static_cast<double>(occ_[1].live); });
  sched_->register_stats(reg, obs::join_path(prefix, "sched"));
  refresh_->register_stats(reg, obs::join_path(prefix, "refresh"));
  if (mitigation_) mitigation_->register_stats(reg, obs::join_path(prefix, "rowhammer"));
  if (engine_) engine_->register_stats(reg, obs::join_path(prefix, "reliability"));
}

}  // namespace ima::mem
