// Unit tests for src/common: RNG, distributions, statistics, tables, bits.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/bits.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace ima {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ReseedResets) {
  Rng a(7);
  const auto first = a.next();
  a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, NextBelowInRange) {
  Rng r(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1'000'000'007ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng r(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[r.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 10'000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, NextRangeInclusive) {
  Rng r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = r.next_range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Zipf, UniformWhenThetaZero) {
  ZipfGenerator z(100, 0.0, 1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[z.next()];
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(Zipf, SkewedHeadHeavy) {
  ZipfGenerator z(1000, 0.99, 1);
  std::uint64_t head = 0, total = 100'000;
  for (std::uint64_t i = 0; i < total; ++i)
    if (z.next() < 10) ++head;
  // With theta=0.99 the top-10 of 1000 items should draw a large share.
  EXPECT_GT(static_cast<double>(head) / total, 0.3);
}

TEST(Zipf, InRange) {
  ZipfGenerator z(17, 0.7, 3);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(z.next(), 17u);
}

TEST(Zipf, GraphScaleSetupIsBoundedAndDrawsStayInRange) {
  // 50M items: the old O(n) zeta sum took seconds here; the Euler–Maclaurin
  // tail caps setup at kZetaExactCutoff terms.
  const auto start = std::chrono::steady_clock::now();
  ZipfGenerator z(50'000'000, 0.9, 5);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(secs, 1.0);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(z.next(), 50'000'000u);
}

TEST(Zipf, ThetaOneIsClampedNotNaN) {
  // theta == 1 makes alpha = 1/(1-theta) infinite in the Gray et al.
  // constants; the clamp keeps draws finite and in range.
  ZipfGenerator z(1000, 1.0, 7);
  EXPECT_LT(z.theta(), 1.0);
  std::uint64_t head = 0;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = z.next();
    EXPECT_LT(v, 1000u);
    if (v < 10) ++head;
  }
  EXPECT_GT(head, 3000u);  // still strongly skewed after the clamp
}

TEST(Zipf, OutOfDomainThetaIsClamped) {
  ZipfGenerator neg(100, -3.0, 1);
  EXPECT_EQ(neg.theta(), 0.0);
  ZipfGenerator nan(100, std::nan(""), 1);
  EXPECT_EQ(nan.theta(), 0.0);
  ZipfGenerator big(100, 7.5, 1);
  EXPECT_LT(big.theta(), 1.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(neg.next(), 100u);
    EXPECT_LT(nan.next(), 100u);
    EXPECT_LT(big.next(), 100u);
  }
}

TEST(Zipf, TailApproximationMatchesExactFrequencies) {
  // Just above the cutoff the tail is approximated; the head frequency of
  // item 0 must still match 1/zeta_exact(n) — a direct check that the
  // Euler–Maclaurin closure agrees with the exact sum.
  const std::uint64_t n = ZipfGenerator::kZetaExactCutoff * 4;
  const double theta = 0.8;
  double zetan_exact = 0;
  for (std::uint64_t i = 1; i <= n; ++i)
    zetan_exact += 1.0 / std::pow(static_cast<double>(i), theta);

  ZipfGenerator z(n, theta, 9);
  const int draws = 200'000;
  int zeros = 0;
  for (int i = 0; i < draws; ++i)
    if (z.next() == 0) ++zeros;
  const double expected = 1.0 / zetan_exact;
  const double got = static_cast<double>(zeros) / draws;
  EXPECT_NEAR(got, expected, 0.15 * expected);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, ResetClears) {
  RunningStat s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(Histogram, PercentileMedian) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.percentile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.percentile(0.9), 90.0, 2.0);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0, 10, 10);
  h.add(-5);
  h.add(100);
  EXPECT_EQ(h.counts().front(), 1u);
  EXPECT_EQ(h.counts().back(), 1u);
}

TEST(Means, HarmonicGeometric) {
  EXPECT_DOUBLE_EQ(harmonic_mean({1.0, 1.0}), 1.0);
  EXPECT_NEAR(harmonic_mean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_EQ(harmonic_mean({}), 0.0);
  EXPECT_EQ(geometric_mean({0.0, 1.0}), 0.0);
}

TEST(Means, WeightedSpeedupAndSlowdown) {
  const std::vector<double> shared{0.5, 1.0};
  const std::vector<double> alone{1.0, 1.0};
  EXPECT_DOUBLE_EQ(weighted_speedup(shared, alone), 1.5);
  EXPECT_DOUBLE_EQ(max_slowdown(shared, alone), 2.0);
}

TEST(Table, FormatsAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::fmt(1.5)});
  t.add_row({"b", Table::fmt_ratio(12.345)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("12.35x"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_pct(0.567), "56.7%");
  EXPECT_EQ(Table::fmt_int(42), "42");
  EXPECT_EQ(Table::fmt_si(1'500'000.0), "1.50M");
  EXPECT_EQ(Table::fmt_si(999.0), "999.00");
}

TEST(Bits, Pow2AndLog2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(4096), 12u);
}

TEST(Bits, ExtractAndRemove) {
  EXPECT_EQ(bits(0xABCD, 4, 8), 0xBCull);
  EXPECT_EQ(bits(~0ull, 0, 64), ~0ull);
  EXPECT_EQ(remove_bits(0b110110, 1, 2), 0b1100ull);
  EXPECT_EQ(align_up(13, 8), 16u);
  EXPECT_EQ(align_up(16, 8), 16u);
}

class BitsRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BitsRoundTrip, InsertExtractIdentity) {
  const std::uint32_t pos = GetParam();
  Rng r(pos + 1);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = r.next();
    // Extracting then reassembling around a removed field is the identity.
    const std::uint64_t field = bits(v, pos, 8);
    const std::uint64_t rest = remove_bits(v, pos, 8);
    const std::uint64_t rebuilt =
        (rest & ((1ull << pos) - 1)) | (field << pos) |
        ((pos + 8 < 64 ? (rest >> pos) << (pos + 8) : 0));
    EXPECT_EQ(rebuilt, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Positions, BitsRoundTrip, ::testing::Values(0u, 4u, 13u, 32u, 50u));

TEST(Types, LineBase) {
  EXPECT_EQ(line_base(0), 0u);
  EXPECT_EQ(line_base(63), 0u);
  EXPECT_EQ(line_base(64), 64u);
  EXPECT_EQ(line_base(130), 128u);
}

TEST(Env, UnsetOrEmptyKeepsTheDefault) {
  ::unsetenv("IMA_TEST_UINT");
  EXPECT_FALSE(env_uint("IMA_TEST_UINT").has_value());
  ::setenv("IMA_TEST_UINT", "", 1);
  EXPECT_FALSE(env_uint("IMA_TEST_UINT").has_value());
  ::unsetenv("IMA_TEST_UINT");
}

TEST(Env, ParsesUnsignedDecimal) {
  for (const auto& [text, value] : {std::pair<const char*, std::uint64_t>{"0", 0},
                                    {"8", 8},
                                    {"007", 7},
                                    {"18446744073709551615", ~0ull}}) {
    ::setenv("IMA_TEST_UINT", text, 1);
    EXPECT_EQ(env_uint("IMA_TEST_UINT"), value) << text;
  }
  ::unsetenv("IMA_TEST_UINT");
}

TEST(Env, MalformedValueNamesTheVariableAndValue) {
  for (const char* text : {"abc", "4x", "-1", "+4", " 4", "4 ", "1.5", "0x10",
                           "18446744073709551616"}) {
    ::setenv("IMA_TEST_UINT", text, 1);
    try {
      (void)env_uint("IMA_TEST_UINT");
      ADD_FAILURE() << "'" << text << "' parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("IMA_TEST_UINT=") + text),
                std::string::npos)
          << e.what();
    }
  }
  ::unsetenv("IMA_TEST_UINT");
}

}  // namespace
}  // namespace ima
