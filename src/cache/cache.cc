#include "cache/cache.hh"

#include <cassert>

#include "common/bits.hh"
#include "common/ckpt.hh"
#include "obs/stat_registry.hh"

namespace ima::cache {

void Cache::register_stats(obs::StatRegistry& reg, const std::string& prefix) const {
  reg.counter(obs::join_path(prefix, "hits"), &stats_.hits);
  reg.counter(obs::join_path(prefix, "misses"), &stats_.misses);
  reg.counter(obs::join_path(prefix, "evictions"), &stats_.evictions);
  reg.counter(obs::join_path(prefix, "writebacks"), &stats_.writebacks);
  reg.gauge(obs::join_path(prefix, "miss_rate"), [this] { return stats_.miss_rate(); });
}

const char* to_string(ReplPolicy p) {
  switch (p) {
    case ReplPolicy::Lru: return "LRU";
    case ReplPolicy::Random: return "Random";
    case ReplPolicy::Srrip: return "SRRIP";
    case ReplPolicy::Drrip: return "DRRIP";
    case ReplPolicy::EafLru: return "EAF-LRU";
  }
  return "?";
}

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
  assert(cfg_.sets() > 0 && is_pow2(cfg_.sets()));
  lines_.resize(static_cast<std::size_t>(cfg_.sets()) * cfg_.ways);
}

std::uint32_t Cache::set_of(Addr addr) const {
  return static_cast<std::uint32_t>((addr / kLineBytes) & (cfg_.sets() - 1));
}

Cache::Line* Cache::find(Addr addr) {
  const std::uint32_t s = set_of(addr);
  const Addr tag = tag_of(addr);
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& l = lines_[static_cast<std::size_t>(s) * cfg_.ways + w];
    if (l.valid && l.tag == tag) return &l;
  }
  return nullptr;
}

const Cache::Line* Cache::find(Addr addr) const {
  return const_cast<Cache*>(this)->find(addr);
}

bool Cache::contains(Addr addr) const { return find(addr) != nullptr; }

void Cache::touch(Line& line, bool is_insert) {
  line.lru = ++clock_;
  switch (cfg_.repl) {
    case ReplPolicy::Srrip:
      line.rrpv = is_insert ? 2 : 0;
      break;
    case ReplPolicy::Drrip: {
      if (!is_insert) {
        line.rrpv = 0;
        break;
      }
      // Set dueling between SRRIP insertion (rrpv=2) and bimodal (rrpv=3
      // mostly): psel tracks which leader policy misses less.
      const bool brrip_mode = psel_ >= 512;
      if (brrip_mode) line.rrpv = rng_.chance(1.0 / 32.0) ? 2 : 3;
      else line.rrpv = 2;
      break;
    }
    default:
      break;
  }
}

std::uint32_t Cache::choose_victim(std::uint32_t set) {
  Line* base = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
  // Invalid line first.
  for (std::uint32_t w = 0; w < cfg_.ways; ++w)
    if (!base[w].valid) return w;

  switch (cfg_.repl) {
    case ReplPolicy::Random:
      return static_cast<std::uint32_t>(rng_.next_below(cfg_.ways));
    case ReplPolicy::Srrip:
    case ReplPolicy::Drrip: {
      for (;;) {
        for (std::uint32_t w = 0; w < cfg_.ways; ++w)
          if (base[w].rrpv >= 3) return w;
        for (std::uint32_t w = 0; w < cfg_.ways; ++w)
          if (base[w].rrpv < 3) ++base[w].rrpv;
      }
    }
    case ReplPolicy::Lru:
    case ReplPolicy::EafLru:
    default: {
      std::uint32_t victim = 0;
      for (std::uint32_t w = 1; w < cfg_.ways; ++w)
        if (base[w].lru < base[victim].lru) victim = w;
      return victim;
    }
  }
}

Cache::AccessResult Cache::access(Addr addr, AccessType type) {
  AccessResult res;
  if (Line* l = find(addr)) {
    res.hit = true;
    ++stats_.hits;
    touch(*l, /*is_insert=*/false);
    if (type == AccessType::Write) l->dirty = true;
    return res;
  }
  ++stats_.misses;
  res.fill = fill(addr, type == AccessType::Write);
  return res;
}

Cache::FillResult Cache::fill(Addr addr, bool dirty) {
  const std::uint32_t s = set_of(addr);
  if (Line* existing = find(addr)) {  // racing fills are idempotent
    existing->dirty |= dirty;
    return {};
  }
  const std::uint32_t w = choose_victim(s);
  Line& l = lines_[static_cast<std::size_t>(s) * cfg_.ways + w];

  FillResult res;
  if (l.valid) {
    ++stats_.evictions;
    res.evicted = l.tag;
    if (l.dirty) {
      res.evicted_dirty = true;
      ++stats_.writebacks;
    }
    if (cfg_.repl == ReplPolicy::EafLru) {
      // Remember the evicted address in the EAF.
      if (eaf_set_.insert(l.tag).second) {
        eaf_fifo_.push_back(l.tag);
        if (eaf_fifo_.size() > static_cast<std::size_t>(cfg_.sets()) * cfg_.ways) {
          eaf_set_.erase(eaf_fifo_.front());
          eaf_fifo_.pop_front();
        }
      }
    }
    if (cfg_.repl == ReplPolicy::Drrip) {
      // Leader-set bookkeeping: low sets lead SRRIP, high sets lead BRRIP.
      if (s < 32 && psel_ < 1023) ++psel_;
      else if (s >= cfg_.sets() - 32 && psel_ > 0) --psel_;
    }
  }

  l.valid = true;
  l.dirty = dirty;
  l.tag = tag_of(addr);
  touch(l, /*is_insert=*/true);

  if (cfg_.repl == ReplPolicy::EafLru && eaf_set_.count(l.tag)) {
    // Recently evicted and returned: high reuse — keep long (nothing to do
    // for LRU beyond the touch). Remove from filter.
    eaf_set_.erase(l.tag);
  } else if (cfg_.repl == ReplPolicy::EafLru) {
    // First-time or streaming line: insert at LRU position instead of MRU
    // so cache pollution evicts itself first.
    l.lru = 0;
  }
  return res;
}

std::optional<Addr> Cache::invalidate(Addr addr) {
  if (Line* l = find(addr)) {
    l->valid = false;
    if (l->dirty) {
      l->dirty = false;
      return l->tag;
    }
  }
  return std::nullopt;
}

template <class Ar>
void Cache::fields(Ar& ar) {
  ar.section("cache");
  ar.match(cfg_.name, "cache name");
  ar.fixed(lines_, "cache line count");
  ar(clock_, rng_, stats_, psel_, eaf_fifo_);
  if constexpr (Ar::loading)
    if (!ar.verifying()) eaf_set_ = std::unordered_set<Addr>(eaf_fifo_.begin(), eaf_fifo_.end());
}
IMA_CKPT_FIELDS(Cache);

}  // namespace ima::cache
