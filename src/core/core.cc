#include "core/core.hh"

#include <algorithm>
#include <ostream>

#include "common/ckpt.hh"

namespace ima::core {

SimpleCore::SimpleCore(std::uint32_t id, std::unique_ptr<workloads::AccessStream> stream,
                       MemoryPort& port, const CoreConfig& cfg)
    : id_(id), stream_(std::move(stream)), port_(port), cfg_(cfg) {
  fetch_next();
}

void SimpleCore::fetch_next() {
  if (!lookahead_.empty()) {
    current_ = lookahead_.front();
    lookahead_.pop_front();
    if (runahead_pos_ > 0) --runahead_pos_;
  } else {
    current_ = stream_->next();
  }
  compute_left_ = current_.compute;
  access_pending_ = true;
}

void SimpleCore::runahead_step(Cycle now) {
  if (runahead_issued_ >= cfg_.runahead_depth) return;
  // Fetch further down the stream and issue the next load as a prefetch.
  // Stores and their side effects are dropped (runahead is speculative).
  while (runahead_pos_ >= lookahead_.size()) lookahead_.push_back(stream_->next());
  const workloads::TraceEntry& e = lookahead_[runahead_pos_];
  if (e.dependent) {
    // Address depends on an unreturned load value: runahead cannot compute
    // it (or anything after it) — stall until the blocking miss resolves.
    runahead_issued_ = cfg_.runahead_depth;
    return;
  }
  ++runahead_pos_;
  if (e.type != AccessType::Read) return;
  workloads::TraceEntry pf = e;
  const auto res = port_.issue(id_, pf, now, [](Cycle) {}, /*speculative=*/true);
  if (res.has_value()) {
    ++runahead_issued_;
    ++stats_.runahead_prefetches;
  } else {
    --runahead_pos_;  // queue full: retry this entry next cycle
  }
}

void SimpleCore::tick(Cycle now) {
  // Cycles of simulated time this tick covers (ticks may skip ahead; the
  // first tick ever covers exactly one cycle).
  Cycle elapsed = last_tick_ == kCycleNever ? 1 : now - last_tick_;
  const Cycle prev = now - elapsed;
  last_tick_ = now;
  if (done()) return;

  if (waiting_) {
    if (now < ready_at_) {
      stats_.stall_cycles += elapsed;
      if (cfg_.runahead) runahead_step(now);
      return;
    }
    // Waking: cycles (prev, ready_at_) stalled; [ready_at_, now] execute.
    if (ready_at_ > prev + 1) stats_.stall_cycles += ready_at_ - 1 - prev;
    elapsed = now - ready_at_ + 1;
    waiting_ = false;
    runahead_issued_ = 0;
    runahead_pos_ = 0;  // re-walk the lookahead architecturally
  }

  // Retire compute instructions at pipeline width per elapsed cycle.
  if (compute_left_ > 0) {
    const std::uint32_t n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        compute_left_, static_cast<std::uint64_t>(cfg_.width) * elapsed));
    compute_left_ -= n;
    stats_.instructions += n;
    stats_.finish_cycle = now;
    return;
  }

  if (!access_pending_) return;

  const auto& access = current_;
  async_done_ = false;
  auto result = port_.issue(id_, access, now, [this](Cycle done_cycle) {
    // Asynchronous completion: wake at the data-return cycle.
    ready_at_ = done_cycle;
    async_done_ = true;
  });

  if (!result.has_value()) {
    ++stats_.stall_cycles;  // queue full; retry next cycle
    return;
  }

  ++stats_.instructions;
  stats_.finish_cycle = now;
  if (access.type == AccessType::Read) ++stats_.loads;
  else ++stats_.stores;
  access_pending_ = false;

  if (access.type == AccessType::Read) {
    if (*result == kCycleNever) {
      // Asynchronous miss: block until the completion callback fires.
      waiting_ = true;
      if (!async_done_) ready_at_ = kCycleNever;
      // If the callback already ran, ready_at_ holds the real wakeup cycle.
    } else if (*result > now + 1) {
      waiting_ = true;
      ready_at_ = *result;
    }
  }
  // Stores are posted: never block.

  fetch_next();
}

Cycle SimpleCore::next_event(Cycle now) const {
  if (done()) return kCycleNever;
  if (waiting_) {
    // Runahead issues one speculative access per stall cycle until the
    // depth budget is spent: no skipping while it is active.
    if (cfg_.runahead && runahead_issued_ < cfg_.runahead_depth) return now + 1;
    return ready_at_;  // kCycleNever while an async miss is outstanding:
                       // the controller's retire event drives the wake-up
  }
  if (compute_left_ > 0) {
    // The next cycles retire cfg_.width instructions each; the interesting
    // boundaries are compute exhaustion and the instruction-limit crossing.
    Cycle steps = (compute_left_ + cfg_.width - 1) / cfg_.width;
    if (cfg_.instr_limit != 0) {
      const std::uint64_t left = cfg_.instr_limit - stats_.instructions;
      steps = std::min<Cycle>(steps, (left + cfg_.width - 1) / cfg_.width);
    }
    return now + steps;
  }
  return now + 1;  // issue or retry next cycle
}

void SimpleCore::dump(std::ostream& os, Cycle now) const {
  os << "core " << id_ << " @" << now << (done() ? " DONE" : "")
     << (waiting_ ? " WAITING" : "") << (access_pending_ ? " ACCESS-PENDING" : "")
     << " ready_at=";
  if (ready_at_ == kCycleNever)
    os << "never";
  else
    os << ready_at_;
  os << " compute_left=" << compute_left_ << " instrs=" << stats_.instructions
     << " loads=" << stats_.loads << " stores=" << stats_.stores
     << " stalls=" << stats_.stall_cycles << "\n";
}

template <class Ar>
void SimpleCore::fields(Ar& ar) {
  if (waiting_ && !async_done_ && ready_at_ == kCycleNever)
    ar.fail(ckpt::ErrorKind::State, "core blocked on an outstanding asynchronous access");
  ar.section("core");
  ar.match(std::uint64_t{id_}, "core id");
  ar.match(stream_->name(), "core stream");
  ar(lookahead_, runahead_pos_, runahead_issued_, current_, compute_left_, access_pending_,
     waiting_, async_done_, ready_at_, last_tick_, stats_, *stream_);
}
IMA_CKPT_FIELDS(SimpleCore);

}  // namespace ima::core
