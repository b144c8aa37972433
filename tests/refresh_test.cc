// Refresh policy tests: retention profiles, RAIDR pacing, all-bank refresh.
#include <gtest/gtest.h>

#include "dram/channel.hh"
#include "mem/refresh.hh"

namespace ima::mem {
namespace {

dram::DramConfig cfg_small() {
  auto cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.channels = 1;
  cfg.geometry.ranks = 1;
  cfg.geometry.banks = 4;
  cfg.geometry.subarrays = 2;
  cfg.geometry.rows_per_subarray = 64;
  cfg.geometry.columns = 8;
  return cfg;
}

TEST(RetentionProfile, FractionsMatchParameters) {
  const auto p = RetentionProfile::generate(100'000, 0.001, 0.01, 3);
  const auto weak = p.rows_in_bin(0);
  const auto mid = p.rows_in_bin(1);
  const auto strong = p.rows_in_bin(2);
  EXPECT_EQ(weak + mid + strong, 100'000u);
  EXPECT_NEAR(static_cast<double>(weak) / 100'000, 0.001, 0.0005);
  EXPECT_NEAR(static_cast<double>(mid) / 100'000, 0.01, 0.003);
}

TEST(RetentionProfile, Deterministic) {
  const auto a = RetentionProfile::generate(1000, 0.01, 0.05, 9);
  const auto b = RetentionProfile::generate(1000, 0.01, 0.05, 9);
  EXPECT_EQ(a.bin_of_row, b.bin_of_row);
}

TEST(NoRefresh, NeverIssues) {
  auto cfg = cfg_small();
  dram::Channel chan(cfg, 0, nullptr);
  auto pol = make_no_refresh();
  for (Cycle now = 0; now < 100'000; ++now) EXPECT_FALSE(pol->tick(chan, now));
  EXPECT_EQ(chan.stats().refs, 0u);
}

TEST(AllBankRefresh, IssuesOncePerTrefi) {
  auto cfg = cfg_small();
  dram::Channel chan(cfg, 0, nullptr);
  auto pol = make_all_bank_refresh(cfg);
  const Cycle horizon = cfg.timings.refi * 10 + 100;
  for (Cycle now = 0; now < horizon; ++now) pol->tick(chan, now);
  EXPECT_GE(chan.stats().refs, 9u);
  EXPECT_LE(chan.stats().refs, 11u);
}

TEST(AllBankRefresh, ScaledIntervalHalvesCount) {
  auto cfg = cfg_small();
  dram::Channel a(cfg, 0, nullptr), b(cfg, 0, nullptr);
  auto pol1 = make_all_bank_refresh(cfg, 1.0);
  auto pol2 = make_all_bank_refresh(cfg, 2.0);
  const Cycle horizon = cfg.timings.refi * 20;
  for (Cycle now = 0; now < horizon; ++now) {
    pol1->tick(a, now);
    pol2->tick(b, now);
  }
  EXPECT_NEAR(static_cast<double>(a.stats().refs),
              2.0 * static_cast<double>(b.stats().refs), 2.0);
}

TEST(AllBankRefresh, PrechargesOpenBanksWhenDue) {
  auto cfg = cfg_small();
  dram::Channel chan(cfg, 0, nullptr);
  auto pol = make_all_bank_refresh(cfg);
  // Hold a row open across the tREFI boundary.
  chan.issue(dram::Cmd::Act, {0, 0, 0, 5, 0}, 0);
  bool refreshed = false;
  for (Cycle now = 0; now < cfg.timings.refi * 2 && !refreshed; ++now) {
    pol->tick(chan, now);
    refreshed = chan.stats().refs > 0;
  }
  EXPECT_TRUE(refreshed);
  EXPECT_GE(chan.stats().pres, 1u);  // had to close the bank first
}

// rank_blocked answers for the cycle it is asked about, whatever cycles were
// ticked before: the controller asks about cycles it never ticked.
TEST(AllBankRefresh, RankBlockedFromTheDueCycleOnExceptInSelfRefresh) {
  auto cfg = cfg_small();
  dram::Channel chan(cfg, 0, nullptr);
  auto pol = make_all_bank_refresh(cfg);
  const Cycle due = cfg.timings.refi;  // one rank: no stagger
  EXPECT_FALSE(pol->rank_blocked(0, due - 1));
  EXPECT_TRUE(pol->rank_blocked(0, due));
  EXPECT_TRUE(pol->rank_blocked(0, due + 1000));
  // Ticks that issue nothing change no answer.
  for (Cycle now = 0; now < due; now += 97) EXPECT_FALSE(pol->tick(chan, now));
  EXPECT_FALSE(pol->rank_blocked(0, due - 1));
  EXPECT_TRUE(pol->rank_blocked(0, due));

  // A self-refreshing rank keeps its own cells: no REF at the due cycle, and
  // never blocked, however late.
  chan.enter_power_state(0, dram::Channel::PowerState::SelfRefresh, due);
  EXPECT_FALSE(pol->tick(chan, due));
  EXPECT_FALSE(pol->rank_blocked(0, due));
  EXPECT_FALSE(pol->rank_blocked(0, 50 * due));
  EXPECT_EQ(pol->next_event(due), kCycleNever);

  // Waking re-arms a full interval from the cycle before the wake.
  const Cycle wake = 5 * due;
  pol->on_rank_wake(0, wake);
  chan.wake_rank(0, wake);
  EXPECT_FALSE(pol->rank_blocked(0, wake - 1 + due - 1));
  EXPECT_TRUE(pol->rank_blocked(0, wake - 1 + due));
  EXPECT_EQ(chan.stats().refs, 0u);
}

TEST(Raidr, RowRefreshRateMatchesProfile) {
  auto cfg = cfg_small();
  dram::Channel chan(cfg, 0, nullptr);
  const std::uint64_t total_rows =
      static_cast<std::uint64_t>(cfg.geometry.ranks) * cfg.geometry.banks *
      cfg.geometry.rows_per_bank();
  // Pathological profile for testability: 10% weak, 20% mid.
  auto profile = RetentionProfile::generate(total_rows, 0.10, 0.20, 5);
  const double weak = static_cast<double>(profile.rows_in_bin(0));
  const double mid = static_cast<double>(profile.rows_in_bin(1));
  const double strong = static_cast<double>(profile.rows_in_bin(2));
  auto pol = make_raidr(cfg, profile);

  const Cycle window = static_cast<Cycle>(cfg.timings.refi) * 8192;  // one 64ms period
  for (Cycle now = 0; now < window; ++now) pol->tick(chan, now);

  // Expected row refreshes in one base window: weak*1 + mid/2 + strong/4.
  const double expect = weak + mid / 2 + strong / 4;
  EXPECT_NEAR(static_cast<double>(chan.stats().ref_rows), expect, expect * 0.05 + 3);
}

TEST(Raidr, FarFewerRefreshesThanBaselineAtRealisticProfile) {
  auto cfg = cfg_small();
  const std::uint64_t total_rows =
      static_cast<std::uint64_t>(cfg.geometry.ranks) * cfg.geometry.banks *
      cfg.geometry.rows_per_bank();
  auto profile = RetentionProfile::generate(total_rows, 0.001, 0.01, 5);
  dram::Channel chan(cfg, 0, nullptr);
  auto pol = make_raidr(cfg, profile);
  const Cycle window = static_cast<Cycle>(cfg.timings.refi) * 8192;
  for (Cycle now = 0; now < window; ++now) pol->tick(chan, now);
  // Baseline would refresh every row once per window; RAIDR ~26%.
  EXPECT_LT(static_cast<double>(chan.stats().ref_rows),
            0.35 * static_cast<double>(total_rows));
}

TEST(Raidr, NeverBlocksRanks) {
  auto cfg = cfg_small();
  auto profile = RetentionProfile::generate(64, 0.1, 0.1, 5);
  auto pol = make_raidr(cfg, profile);
  EXPECT_FALSE(pol->rank_blocked(0, 0));
  EXPECT_FALSE(pol->rank_blocked(0, static_cast<Cycle>(cfg.timings.refi) * 8192));
}

TEST(Raidr, ForcesPreallOnIdleOpenBankInsteadOfDeadlocking) {
  // Regression: a drained burst can park a bank open with no demand left to
  // close it. RAIDR's head row then waited on can_issue(RefRow) forever —
  // and with it every bin, weak rows first — until unrelated traffic
  // happened to precharge the bank. The policy must force the Pre itself,
  // like all-bank refresh does.
  auto cfg = cfg_small();
  dram::Channel chan(cfg, 0, nullptr);
  const std::uint64_t total_rows =
      static_cast<std::uint64_t>(cfg.geometry.banks) * cfg.geometry.rows_per_bank();
  auto profile = RetentionProfile::generate(total_rows, 1.0, 0.0, 5);  // all weak
  auto pol = make_raidr(cfg, profile);
  // Park bank 0 open (the head row's bank) and never close it.
  const dram::Coord open{0, 0, 0, 1, 0};
  chan.issue(dram::Cmd::Act, open, chan.earliest(dram::Cmd::Act, open, 0));
  // Run a few per-row pacing intervals past the first due time.
  const Cycle window = static_cast<Cycle>(cfg.timings.refi) * 8192;
  const Cycle horizon = window / total_rows * 4;
  for (Cycle now = 100; now < horizon; ++now) pol->tick(chan, now);
  EXPECT_GE(chan.stats().pres, 1u);     // the forced preall
  EXPECT_GT(chan.stats().ref_rows, 0u);  // ...unblocked the row refresh
}

TEST(Raidr, SkipsBusyBankWithoutLosingBudget) {
  auto cfg = cfg_small();
  dram::Channel chan(cfg, 0, nullptr);
  const std::uint64_t total_rows =
      static_cast<std::uint64_t>(cfg.geometry.banks) * cfg.geometry.rows_per_bank();
  auto profile = RetentionProfile::generate(total_rows, 1.0, 0.0, 5);  // all weak
  auto pol = make_raidr(cfg, profile);
  // Occupy all banks with open rows; RAIDR cannot issue.
  for (std::uint32_t b = 0; b < cfg.geometry.banks; ++b) {
    const dram::Coord c{0, 0, b, 1, 0};
    const Cycle t = chan.earliest(dram::Cmd::Act, c, 0);
    chan.issue(dram::Cmd::Act, c, t);
  }
  for (Cycle now = 0; now < 1000; ++now) pol->tick(chan, now);
  EXPECT_EQ(chan.stats().ref_rows, 0u);
  // Close the banks: deferred budget drains as a burst.
  for (std::uint32_t b = 0; b < cfg.geometry.banks; ++b) {
    const dram::Coord c{0, 0, b, 1, 0};
    const Cycle t = chan.earliest(dram::Cmd::Pre, c, 1000);
    chan.issue(dram::Cmd::Pre, c, t);
  }
  std::uint64_t issued = 0;
  for (Cycle now = 2000; now < 500'000; ++now)
    if (pol->tick(chan, now)) ++issued;
  EXPECT_GT(issued, 0u);
}

}  // namespace
}  // namespace ima::mem
