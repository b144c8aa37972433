#include "service/facade.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "harness/pool.hh"

namespace ima::service {

MemoryService::MemoryService(mem::MemorySystem& mem) : mem_(mem) {
  resp_.resize(mem.num_channels());
  fed_.resize(mem.num_channels());
}

bool MemoryService::is_full(std::uint32_t ch, const mem::Request& r) const {
  return !mem_.controller(ch).can_accept(r.type, r.core);
}

void MemoryService::push(std::uint32_t ch, mem::Request r, Cycle now) {
  if (ch >= resp_.size())
    throw std::logic_error("MemoryService::push: channel " + std::to_string(ch) +
                           " out of range");
  if (const auto actual = channel_of(r.addr); actual != ch)
    throw std::logic_error("MemoryService::push: address decodes to channel " +
                           std::to_string(actual) + ", pushed on " + std::to_string(ch));
  if (is_full(ch, r))
    throw std::logic_error("MemoryService::push: channel " + std::to_string(ch) +
                           " is full (gate on is_full)");
  r.arrive = now;
  // is_full() and enqueue() are the same controller predicate, so this
  // cannot fail; if the invariant ever breaks, fail loudly — a silently
  // dropped request (and never-fired callback) is the bug this facade
  // exists to make impossible.
  if (!mem_.enqueue(std::move(r), on_complete(ch)))
    throw std::logic_error(
        "MemoryService::push: enqueue rejected after is_full() == false "
        "(can_accept/enqueue disagree)");
  ++pushed_;
}

const mem::Request& MemoryService::top(std::uint32_t ch) const {
  if (ch >= resp_.size() || resp_[ch].empty())
    throw std::logic_error("MemoryService::top: empty response queue on channel " +
                           std::to_string(ch));
  return resp_[ch].front();
}

void MemoryService::pop(std::uint32_t ch) {
  if (ch >= resp_.size() || resp_[ch].empty())
    throw std::logic_error("MemoryService::pop: empty response queue on channel " +
                           std::to_string(ch));
  resp_[ch].pop_front();
}

void MemoryService::tick(Cycle now) {
  if (mem_.shards() > 0)
    throw std::logic_error(
        "MemoryService::tick: a shard plan is armed; completions sit in the "
        "barrier mailboxes that only drain_to()/pump() deliver — a tick-driven "
        "loop would strand every response");
  mem_.tick(now);
}

Cycle MemoryService::drain_to(Cycle from, Cycle deadline) {
  return mem_.drain(from, deadline);
}

Cycle MemoryService::pump(const mem::MemorySystem::ChannelSource& src, Cycle from,
                          Cycle deadline) {
  if (mem_.shards() == 0) mem_.set_shards(std::max(1u, harness::default_shards()));
  mem::MemorySystem::ChannelSource wrapped;
  // next runs on the owning shard's thread: fed_[ch] is single-writer.
  wrapped.next = [this, &src](std::uint32_t ch, Cycle now, mem::Request& out) {
    if (!src.next(ch, now, out)) return false;
    ++fed_[ch].n;
    return true;
  };
  // on_complete is delivered through the barrier mailboxes on the
  // coordinator, in canonical order, to one consumer: the caller's hook
  // when it has one, else the response queues.
  if (src.on_complete)
    wrapped.on_complete = [this, &src](std::uint32_t ch, const mem::Request& done) {
      ++completed_;
      src.on_complete(ch, done);
    };
  else
    wrapped.on_complete = [this](std::uint32_t ch, const mem::Request& done) {
      resp_[ch].push_back(done);
      ++completed_;
    };
  return mem_.drain_sourced(wrapped, from, deadline);
}

std::uint64_t MemoryService::pushed() const {
  std::uint64_t n = pushed_;
  for (const FedCount& f : fed_) n += f.n;
  return n;
}

std::uint64_t MemoryService::responses_queued() const {
  std::uint64_t n = 0;
  for (const auto& q : resp_) n += q.size();
  return n;
}

mem::CompletionCallback MemoryService::on_complete(std::uint32_t ch) {
  return [this, ch](const mem::Request& done) {
    resp_[ch].push_back(done);
    ++completed_;
  };
}

}  // namespace ima::service
