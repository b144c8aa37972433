// Cache model tests: lookup/eviction semantics, replacement policies.
#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace ima::cache {
namespace {

CacheConfig tiny(ReplPolicy p = ReplPolicy::Lru) {
  CacheConfig c;
  c.size_bytes = 4 * 1024;  // 8 sets x 8 ways
  c.ways = 8;
  c.repl = p;
  return c;
}

Addr addr_in_set(const Cache& c, std::uint32_t set, std::uint32_t k) {
  // Distinct tags mapping to the same set.
  return (static_cast<Addr>(k) * c.config().sets() + set) * kLineBytes;
}

TEST(Cache, HitAfterMiss) {
  Cache c(tiny());
  EXPECT_FALSE(c.access(0x1000, AccessType::Read).hit);
  EXPECT_TRUE(c.access(0x1000, AccessType::Read).hit);
  EXPECT_TRUE(c.access(0x1000 + 63, AccessType::Read).hit);  // same line
  EXPECT_FALSE(c.access(0x1040, AccessType::Read).hit);      // next line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, SetsComputedFromGeometry) {
  Cache c(tiny());
  EXPECT_EQ(c.config().sets(), 8u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(tiny());
  // Fill one set.
  for (std::uint32_t k = 0; k < 8; ++k) c.access(addr_in_set(c, 3, k), AccessType::Read);
  // Touch line 0 so line 1 becomes LRU.
  c.access(addr_in_set(c, 3, 0), AccessType::Read);
  // Insert a 9th line -> evicts k=1.
  c.access(addr_in_set(c, 3, 8), AccessType::Read);
  EXPECT_TRUE(c.contains(addr_in_set(c, 3, 0)));
  EXPECT_FALSE(c.contains(addr_in_set(c, 3, 1)));
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  Cache c(tiny());
  c.access(addr_in_set(c, 2, 0), AccessType::Write);
  for (std::uint32_t k = 1; k <= 8; ++k) {
    const auto res = c.access(addr_in_set(c, 2, k), AccessType::Read);
    if (res.fill.evicted && res.fill.evicted_dirty) {
      EXPECT_EQ(*res.fill.evicted, addr_in_set(c, 2, 0));
      EXPECT_EQ(c.stats().writebacks, 1u);
      return;
    }
  }
  FAIL() << "dirty victim never surfaced";
}

TEST(Cache, CleanEvictionReportsVictimWithoutWriteback) {
  Cache c(tiny());
  for (std::uint32_t k = 0; k <= 8; ++k) c.access(addr_in_set(c, 1, k), AccessType::Read);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(tiny());
  c.access(0x2000, AccessType::Read);
  c.access(0x2000, AccessType::Write);
  const auto wb = c.invalidate(0x2000);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, line_base(0x2000));
}

TEST(Cache, InvalidateCleanReturnsNothing) {
  Cache c(tiny());
  c.access(0x2000, AccessType::Read);
  EXPECT_FALSE(c.invalidate(0x2000).has_value());
  EXPECT_FALSE(c.contains(0x2000));
}

TEST(Cache, FillIsIdempotent) {
  Cache c(tiny());
  c.fill(0x3000, false);
  const auto r = c.fill(0x3000, true);
  EXPECT_FALSE(r.evicted.has_value());
  const auto wb = c.invalidate(0x3000);
  EXPECT_TRUE(wb.has_value());  // second fill merged dirty bit
}

class PolicyBehaviour : public ::testing::TestWithParam<ReplPolicy> {};

TEST_P(PolicyBehaviour, ReuseWorkingSetStaysResident) {
  CacheConfig cfg = tiny(GetParam());
  Cache c(cfg);
  // Working set of half the cache, accessed repeatedly: high hit rate for
  // every sane policy.
  std::vector<Addr> ws;
  for (std::uint32_t i = 0; i < 32; ++i) ws.push_back(i * kLineBytes);
  for (int round = 0; round < 50; ++round)
    for (Addr a : ws) c.access(a, AccessType::Read);
  const double hit_rate = 1.0 - c.stats().miss_rate();
  EXPECT_GT(hit_rate, 0.9) << to_string(GetParam());
}

TEST_P(PolicyBehaviour, SequentialStreamMostlyMisses) {
  CacheConfig cfg = tiny(GetParam());
  Cache c(cfg);
  for (Addr a = 0; a < (1 << 20); a += kLineBytes) c.access(a, AccessType::Read);
  EXPECT_GT(c.stats().miss_rate(), 0.99) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyBehaviour,
                         ::testing::Values(ReplPolicy::Lru, ReplPolicy::Random,
                                           ReplPolicy::Srrip, ReplPolicy::Drrip,
                                           ReplPolicy::EafLru),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(Cache, EafResistsScanPollution) {
  // Reuse set + one-pass scan: EAF should keep more of the reuse set than
  // plain LRU.
  auto run = [](ReplPolicy p) {
    Cache c(tiny(p));
    std::vector<Addr> ws;
    for (std::uint32_t i = 0; i < 48; ++i) ws.push_back(i * kLineBytes);
    // Warm the reuse set with multiple rounds (establishes reuse in EAF).
    for (int round = 0; round < 4; ++round)
      for (Addr a : ws) c.access(a, AccessType::Read);
    // Interleave: scan pollution + reuse accesses.
    std::uint64_t reuse_hits = 0, reuse_accesses = 0;
    Addr scan = 1 << 24;
    for (int round = 0; round < 20; ++round) {
      for (int s = 0; s < 64; ++s) {
        c.access(scan, AccessType::Read);
        scan += kLineBytes;
      }
      for (Addr a : ws) {
        reuse_hits += c.access(a, AccessType::Read).hit ? 1 : 0;
        ++reuse_accesses;
      }
    }
    return static_cast<double>(reuse_hits) / static_cast<double>(reuse_accesses);
  };
  EXPECT_GT(run(ReplPolicy::EafLru), run(ReplPolicy::Lru));
}

TEST(Cache, EafFilterHitLeavesNoStaleCopy) {
  // The filter holds the last sets * ways = 64 evicted tags. A tag that
  // returns from the filter and is evicted again is a member once more; a
  // stale copy of its first membership must neither take a filter slot nor,
  // aging out, erase the second membership.
  Cache c(tiny(ReplPolicy::EafLru));
  const auto t = [&](std::uint32_t k) { return addr_in_set(c, 0, k); };
  // Ways 0..7 hold t0..t7, each inserted at the LRU position (lru 0), so
  // every miss below evicts the lowest way still at lru 0.
  for (std::uint32_t k = 0; k < 8; ++k) c.access(t(k), AccessType::Read);
  c.access(t(8), AccessType::Read);  // evicts t0: filter {t0}
  c.access(t(0), AccessType::Read);  // evicts t8; t0 returns from the filter, MRU
  for (std::uint32_t k = 1; k < 8; ++k) EXPECT_TRUE(c.access(t(k), AccessType::Read).hit);
  c.access(t(9), AccessType::Read);  // t0 is now the LRU line: evicted again
  // 62 more evictions (t9..t70) fill the filter to exactly 64 tags: t8, t0
  // and t9..t70. t0 is still a member.
  for (std::uint32_t k = 10; k < 72; ++k) c.access(t(k), AccessType::Read);
  // t0 misses (evicting t71, which ages t8 out) and, found in the filter,
  // is kept at MRU, so the next miss evicts t1 rather than t0.
  EXPECT_FALSE(c.access(t(0), AccessType::Read).hit);
  c.access(t(72), AccessType::Read);
  EXPECT_TRUE(c.contains(t(0)));
  EXPECT_FALSE(c.contains(t(1)));
}

TEST(Cache, SrripResistsScanBetterThanLru) {
  auto run = [](ReplPolicy p) {
    Cache c(tiny(p));
    std::vector<Addr> ws;
    for (std::uint32_t i = 0; i < 40; ++i) ws.push_back(i * kLineBytes);
    for (int round = 0; round < 4; ++round)
      for (Addr a : ws) c.access(a, AccessType::Read);
    std::uint64_t hits = 0, accesses = 0;
    Addr scan = 1 << 24;
    for (int round = 0; round < 20; ++round) {
      for (int s = 0; s < 48; ++s) {
        c.access(scan, AccessType::Read);
        scan += kLineBytes;
      }
      for (Addr a : ws) {
        hits += c.access(a, AccessType::Read).hit ? 1 : 0;
        ++accesses;
      }
    }
    return static_cast<double>(hits) / static_cast<double>(accesses);
  };
  EXPECT_GE(run(ReplPolicy::Srrip), run(ReplPolicy::Lru) * 0.95);
}

TEST(Cache, RandomFuzzNeverBreaksInvariants) {
  Cache c(tiny(ReplPolicy::Drrip));
  Rng rng(5);
  for (int i = 0; i < 100'000; ++i) {
    const Addr a = line_base(rng.next_below(1 << 22));
    const auto type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
    const auto res = c.access(a, type);
    if (res.hit) EXPECT_TRUE(c.contains(a));
    else EXPECT_TRUE(c.contains(a));  // allocate-on-miss
  }
  EXPECT_EQ(c.stats().hits + c.stats().misses, 100'000u);
}

}  // namespace
}  // namespace ima::cache
