// Telemetry-layer tests: StatRegistry registration/snapshot/diff semantics,
// TraceSink ring behaviour and Chrome export, the JSON/CSV writers, and
// Report file emission. JSON assertions are substring/structure checks —
// the repo deliberately has no JSON parser dependency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/stat_registry.hh"
#include "obs/tail.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"

namespace ima {
namespace {

TEST(JoinPath, JoinsWithDotAndPassesThroughEmpty) {
  EXPECT_EQ(obs::join_path("mem", "ctrl0"), "mem.ctrl0");
  EXPECT_EQ(obs::join_path("", "ctrl0"), "ctrl0");
  EXPECT_EQ(obs::join_path("mem", ""), "mem");
}

TEST(StatRegistry, CounterGaugeAndFnRegisterAndRead) {
  obs::StatRegistry reg;
  std::uint64_t hits = 7;
  double level = 0.25;
  reg.counter("c.hits", &hits);
  reg.gauge("c.level", [&] { return level; });
  reg.counter_fn("c.twice", [&] { return static_cast<double>(2 * hits); });

  EXPECT_EQ(reg.size(), 3u);
  EXPECT_TRUE(reg.contains("c.hits"));
  EXPECT_FALSE(reg.contains("c.nope"));
  EXPECT_EQ(reg.value("c.hits"), 7.0);
  EXPECT_EQ(reg.value("c.twice"), 14.0);
  hits = 9;
  EXPECT_EQ(reg.value("c.hits"), 9.0);  // borrowed pointer, live value
  EXPECT_EQ(reg.value("c.level"), 0.25);
  EXPECT_FALSE(reg.value("c.nope").has_value());

  ASSERT_NE(reg.find("c.hits"), nullptr);
  EXPECT_EQ(reg.find("c.hits")->kind, obs::StatKind::Counter);
  EXPECT_EQ(reg.find("c.level")->kind, obs::StatKind::Gauge);
}

TEST(StatRegistry, RunningStatExpandsToFiveEntries) {
  obs::StatRegistry reg;
  RunningStat rs;
  rs.add(1.0);
  rs.add(3.0);
  reg.running("lat", &rs);
  EXPECT_EQ(reg.value("lat.count"), 2.0);
  EXPECT_EQ(reg.value("lat.mean"), 2.0);
  EXPECT_EQ(reg.value("lat.min"), 1.0);
  EXPECT_EQ(reg.value("lat.max"), 3.0);
  EXPECT_TRUE(reg.contains("lat.stddev"));
}

TEST(StatRegistry, HistogramExpandsToPercentiles) {
  obs::StatRegistry reg;
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  reg.histogram("dist", &h);
  EXPECT_EQ(reg.value("dist.count"), 100.0);
  EXPECT_NEAR(reg.value("dist.mean").value(), 49.5, 1e-9);
  EXPECT_NEAR(reg.value("dist.p50").value(), 50.0, 2.0);
  EXPECT_NEAR(reg.value("dist.p95").value(), 95.0, 2.0);
  EXPECT_NEAR(reg.value("dist.p99").value(), 99.0, 2.0);
}

TEST(StatRegistry, MatchFiltersByPrefix) {
  obs::StatRegistry reg;
  std::uint64_t a = 1, b = 2, c = 3;
  reg.counter("mem.ctrl0.reads", &a);
  reg.counter("mem.ctrl1.reads", &b);
  reg.counter("cache.l2.hits", &c);
  EXPECT_EQ(reg.match("mem.").size(), 2u);
  EXPECT_EQ(reg.match("cache").size(), 1u);
  EXPECT_EQ(reg.match().size(), 3u);
}

TEST(StatRegistry, SnapshotIsSortedAndDiffSubtractsCounters) {
  obs::StatRegistry reg;
  std::uint64_t reads = 10;
  double depth = 4.0;
  reg.gauge("q.depth", [&] { return depth; });  // registered first on purpose
  reg.counter("a.reads", &reads);

  const auto before = reg.snapshot();
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before.values[0].path, "a.reads");  // sorted despite reg order
  EXPECT_EQ(before.at("a.reads"), 10.0);

  reads = 25;
  depth = 1.0;
  const auto after = reg.snapshot();
  const auto d = obs::StatRegistry::diff(before, after);
  EXPECT_EQ(d.at("a.reads"), 15.0);  // counter: after - before
  EXPECT_EQ(d.at("q.depth"), 1.0);   // gauge: after value
}

TEST(StatRegistry, DiffPassesThroughPathsMissingFromBefore) {
  obs::StatRegistry reg;
  std::uint64_t x = 5;
  reg.counter("x", &x);
  const obs::StatRegistry::Snapshot empty;
  const auto d = obs::StatRegistry::diff(empty, reg.snapshot());
  EXPECT_EQ(d.at("x"), 5.0);
}

TEST(StatRegistry, SnapshotPrefixSelectsSubtree) {
  obs::StatRegistry reg;
  std::uint64_t a = 1, b = 2;
  reg.counter("mem.reads", &a);
  reg.counter("cache.hits", &b);
  const auto snap = reg.snapshot("mem");
  EXPECT_EQ(snap.size(), 1u);
  EXPECT_TRUE(snap.at("mem.reads").has_value());
}

TEST(StatRegistry, WorksAgainstARealComponent) {
  cache::CacheConfig cfg;
  cfg.size_bytes = 4 * 1024;
  cfg.ways = 4;
  cache::Cache c(cfg);
  obs::StatRegistry reg;
  c.register_stats(reg, "l1");
  c.access(0x1000, AccessType::Read);   // miss
  c.access(0x1000, AccessType::Read);   // hit
  EXPECT_EQ(reg.value("l1.misses"), 1.0);
  EXPECT_EQ(reg.value("l1.hits"), 1.0);
  EXPECT_EQ(reg.value("l1.miss_rate"), 0.5);
}

TEST(Histogram, DegenerateRangesAndZeroBucketsAreRepaired) {
  Histogram inverted(10.0, 5.0, 4);   // hi <= lo
  inverted.add(7.0);                  // must not divide by zero / crash
  EXPECT_EQ(inverted.stat().count(), 1u);

  Histogram empty_range(3.0, 3.0, 4);
  empty_range.add(3.0);
  EXPECT_EQ(empty_range.stat().count(), 1u);

  Histogram no_buckets(0.0, 1.0, 0);  // zero buckets becomes one
  no_buckets.add(0.5);
  no_buckets.add(2.0);                // clamps to the single bucket
  EXPECT_EQ(no_buckets.counts().size(), 1u);
  EXPECT_EQ(no_buckets.counts()[0], 2u);
}

TEST(StatRegistry, HistogramRegistersTailFields) {
  obs::StatRegistry reg;
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  reg.histogram("dist", &h);
  EXPECT_TRUE(reg.contains("dist.p999"));
  EXPECT_EQ(reg.value("dist.max"), 99.0);
  EXPECT_NEAR(reg.value("dist.p999").value(), 99.0, 2.0);
}

TEST(Histogram, PercentileClampsToObservedRange) {
  // One sample in a wide bucket: the percentile must report the exact
  // value, not the bucket midpoint with false precision.
  Histogram h(0.0, 1000.0, 10);
  h.add(430.0);
  EXPECT_EQ(h.percentile(0.5), 430.0);
  EXPECT_EQ(h.percentile(0.999), 430.0);
}

TEST(TailRecorder, SmallValuesAreBucketedExactly) {
  obs::TailRecorder t;
  for (std::uint64_t v = 1; v <= 31; ++v) t.add(v);  // all below 2^(p+1)
  EXPECT_EQ(t.count(), 31u);
  EXPECT_EQ(t.percentile(0.5), 16.0);   // ceil(0.5*31) = 16th sample
  EXPECT_EQ(t.percentile(1.0), 31.0);
  EXPECT_EQ(t.min(), 1.0);
  EXPECT_EQ(t.max(), 31.0);
}

TEST(TailRecorder, AllEqualSamplesReportTheExactValue) {
  obs::TailRecorder t;
  for (int i = 0; i < 10; ++i) t.add(123456789);
  EXPECT_EQ(t.percentile(0.5), 123456789.0);
  EXPECT_EQ(t.percentile(0.999), 123456789.0);
}

TEST(TailRecorder, PercentilesAreMonotoneWithBoundedRelativeError) {
  obs::TailRecorder t;
  for (std::uint64_t i = 1; i <= 1000; ++i) t.add(i * 1000);
  const double p50 = t.percentile(0.50);
  const double p95 = t.percentile(0.95);
  const double p99 = t.percentile(0.99);
  const double p999 = t.percentile(0.999);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LE(p999, t.max());
  // Bucket relative width is bounded by 2^-precision_bits.
  EXPECT_NEAR(p50, 500'000.0, 500'000.0 / 16.0);
  EXPECT_NEAR(p999, 999'000.0, 999'000.0 / 16.0);
}

TEST(TailRecorder, PercentileDomainIsClampedNotUndefined) {
  // Contract: q lives on (0, 1]. Out-of-domain queries clamp — q <= 0 (and
  // NaN, whose every comparison is false) to the rank-1 sample, q > 1 to
  // the rank-n sample — instead of feeding ceil(q * n) garbage into a
  // uint64 cast (UB for NaN and negative arguments).
  obs::TailRecorder t;
  for (std::uint64_t v = 1; v <= 31; ++v) t.add(v);  // exact buckets
  EXPECT_EQ(t.percentile(0.0), 1.0);
  EXPECT_EQ(t.percentile(-3.0), 1.0);
  EXPECT_EQ(t.percentile(std::nan("")), 1.0);
  EXPECT_EQ(t.percentile(1.0), 31.0);
  EXPECT_EQ(t.percentile(1.5), 31.0);
  EXPECT_EQ(t.percentile(std::numeric_limits<double>::infinity()), 31.0);
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(t.percentile(tiny), 1.0);  // ceil rounds any q > 0 up to rank 1
  // Empty recorder: every query, in or out of domain, reports 0.
  obs::TailRecorder e;
  EXPECT_EQ(e.percentile(0.5), 0.0);
  EXPECT_EQ(e.percentile(std::nan("")), 0.0);
}

TEST(TailRecorder, BucketInversionIsExactAtEveryPrecision) {
  // Exhaustive small-value check of bucket_of and its inversion in
  // percentile(): for every value below 2^(p+1) the recorder is exact, so
  // a single-sample recorder must hand back precisely that sample at any
  // quantile — at the default precision and at the extremes.
  for (const unsigned p : {1u, 4u, 6u}) {
    const std::uint64_t exact_limit = 1ull << (p + 1);
    for (std::uint64_t v = 0; v < exact_limit; ++v) {
      obs::TailRecorder t(p);
      t.add(v);
      EXPECT_EQ(t.percentile(0.001), static_cast<double>(v)) << "p=" << p << " v=" << v;
      EXPECT_EQ(t.percentile(1.0), static_cast<double>(v)) << "p=" << p << " v=" << v;
    }
  }
}

TEST(TailRecorder, RankSelectionIsExactWhenBucketsAre) {
  // With all samples in the exact range, percentile() degenerates to true
  // order statistics: cross-check every rank against a sorted copy, at a
  // coarse and a fine precision.
  for (const unsigned p : {1u, 6u}) {
    obs::TailRecorder t(p);
    std::vector<std::uint64_t> vals;
    std::uint64_t x = 12345;
    const std::uint64_t exact_limit = 1ull << (p + 1);
    for (int i = 0; i < 200; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;  // LCG, any dist
      vals.push_back(x % exact_limit);
      t.add(vals.back());
    }
    std::sort(vals.begin(), vals.end());
    for (std::size_t r = 1; r <= vals.size(); ++r) {
      // (r - 0.5) / n lands mid-gap so ceil(q * n) == r exactly, immune to
      // the q = r/n representation error that could bump the rank by one.
      const double q =
          (static_cast<double>(r) - 0.5) / static_cast<double>(vals.size());
      EXPECT_EQ(t.percentile(q), static_cast<double>(vals[r - 1]))
          << "p=" << p << " rank=" << r;
    }
  }
}

TEST(TailRecorder, WideBucketsReportUpperEdgeClampedToObservedRange) {
  // Above the exact range a bucket spans [m<<s, ((m+1)<<s)-1]; percentile
  // reports the upper edge clamped into [min, max] — never a value outside
  // what was observed, never below a smaller sample's bucket.
  for (const unsigned p : {1u, 4u, 6u}) {
    obs::TailRecorder t(p);
    t.add(1'000'000);
    EXPECT_EQ(t.percentile(0.5), 1'000'000.0) << "single sample must clamp to itself";
    t.add(1'000'000);
    t.add(3);
    EXPECT_LE(t.percentile(1.0), 1'000'000.0);
    EXPECT_GE(t.percentile(0.001), 3.0);
    // Relative error of the p50/p99 band is bounded by 2^-p.
    const double err = std::ldexp(1.0, -static_cast<int>(p));
    EXPECT_NEAR(t.percentile(0.9), 1'000'000.0, 1'000'000.0 * err);
  }
}

TEST(TailRecorder, BucketEdgesReportRecordedValues) {
  // Every value 0, 1 and 2^k - 1, 2^k, 2^k + 1 up to 2^40 sits at or next
  // to a bucket edge. Recorded beside a larger sample, it reports its own
  // bucket's upper edge at the median. The folds of those edges, and the
  // spot values below, were recorded from a bit-counting-loop bucket_of.
  std::vector<std::uint64_t> vals{0, 1};
  for (unsigned k = 1; k <= 40; ++k) {
    const std::uint64_t e = std::uint64_t{1} << k;
    vals.insert(vals.end(), {e - 1, e, e + 1});
  }
  const auto edge = [](unsigned p, std::uint64_t v) {
    obs::TailRecorder t(p);
    t.add(v);
    t.add(std::uint64_t{1} << 41);
    return t.percentile(0.5);
  };
  const std::pair<unsigned, std::uint64_t> recorded[] = {
      {1u, 0x3f13874e2e7e1099ull}, {4u, 0x9445ad3019da6952ull}, {6u, 0xe58d03317f8db6dcull}};
  for (const auto& [p, digest] : recorded) {
    std::uint64_t d = 1469598103934665603ull;
    for (const std::uint64_t v : vals)
      d = (d ^ static_cast<std::uint64_t>(edge(p, v))) * 1099511628211ull;
    EXPECT_EQ(d, digest) << "p=" << p;
  }
  EXPECT_EQ(edge(4, 0), 0.0);
  EXPECT_EQ(edge(4, 31), 31.0);
  EXPECT_EQ(edge(4, 32), 33.0);
  EXPECT_EQ(edge(4, 33), 33.0);
  EXPECT_EQ(edge(4, (std::uint64_t{1} << 40) - 1), 1099511627775.0);
  EXPECT_EQ(edge(4, std::uint64_t{1} << 40), 1168231104511.0);
  EXPECT_EQ(edge(4, (std::uint64_t{1} << 40) + 1), 1168231104511.0);
}

TEST(TailRecorder, EmbeddedStatIsValueIdenticalToARunningStat) {
  obs::TailRecorder t;
  RunningStat rs;
  for (const std::uint64_t v : {5u, 9u, 1u, 77u, 77u, 1024u}) {
    t.add(v);
    rs.add(static_cast<double>(v));
  }
  EXPECT_EQ(t.stat().count(), rs.count());
  EXPECT_EQ(t.stat().mean(), rs.mean());
  EXPECT_EQ(t.stat().min(), rs.min());
  EXPECT_EQ(t.stat().max(), rs.max());
  EXPECT_EQ(t.stat().stddev(), rs.stddev());
}

TEST(StatRegistry, TailRecorderExpandsToPercentileEntries) {
  obs::StatRegistry reg;
  obs::TailRecorder t;
  for (std::uint64_t v = 1; v <= 100; ++v) t.add(v);
  reg.tail("lat", &t);
  EXPECT_EQ(reg.value("lat.count"), 100.0);
  EXPECT_EQ(reg.value("lat.sum"), 5050.0);
  EXPECT_EQ(reg.value("lat.mean"), 50.5);
  EXPECT_TRUE(reg.contains("lat.stddev"));
  EXPECT_NEAR(reg.value("lat.p50").value(), 50.0, 4.0);
  EXPECT_NEAR(reg.value("lat.p999").value(), 100.0, 8.0);
  ASSERT_NE(reg.find("lat.count"), nullptr);
  EXPECT_EQ(reg.find("lat.count")->kind, obs::StatKind::Counter);
  EXPECT_EQ(reg.find("lat.p50")->kind, obs::StatKind::Gauge);
}

TEST(TimeSeries, EmitsOncePerBoundaryAndDedupesQuiescence) {
  double v = 1.0;
  obs::TimeSeries ts("t", 10);
  ts.add_track("g", obs::StatKind::Gauge, [&v] { return v; });
  ts.advance(5);  // no boundary crossed yet
  EXPECT_EQ(ts.data().emitted, 0u);
  EXPECT_TRUE(ts.data().samples.empty());
  ts.advance(25);  // boundaries 10 and 20, same value: one stored sample
  EXPECT_EQ(ts.data().emitted, 2u);
  ASSERT_EQ(ts.data().samples.size(), 1u);
  EXPECT_EQ(ts.data().samples[0].cycle, 10u);
  EXPECT_EQ(ts.data().samples[0].values, std::vector<double>{1.0});
  v = 2.0;
  ts.advance(40);  // boundaries 30 and 40: change stored once, at 30
  EXPECT_EQ(ts.data().emitted, 4u);
  ASSERT_EQ(ts.data().samples.size(), 2u);
  EXPECT_EQ(ts.data().samples[1].cycle, 30u);
  EXPECT_EQ(ts.data().samples[1].values, std::vector<double>{2.0});
  EXPECT_EQ(ts.data().dropped, 0u);
}

TEST(TimeSeries, CapacityBoundsStorageAndCountsDrops) {
  double v = 0.0;
  obs::TimeSeries ts("t", 10, /*max_samples=*/2);
  ts.add_track("g", obs::StatKind::Gauge, [&v] { return v; });
  for (Cycle c = 10; c <= 50; c += 10) {
    v = static_cast<double>(c);  // changes at every boundary
    ts.advance(c);
  }
  EXPECT_EQ(ts.data().emitted, 5u);
  EXPECT_EQ(ts.data().samples.size(), 2u);
  EXPECT_EQ(ts.data().dropped, 3u);
}

TEST(TimeSeries, OneJumpMatchesPerBoundaryAdvance) {
  // A SkipAhead-style jump across many boundaries must leave the same data
  // as advancing through each one (values constant across the jump).
  const auto build = [](bool jump) {
    obs::TimeSeries ts("t", 7);
    double v = 3.0;
    ts.add_track("g", obs::StatKind::Gauge, [&v] { return v; });
    if (jump) {
      ts.advance(100);
    } else {
      for (Cycle c = 1; c <= 100; ++c) ts.advance(c);
    }
    return ts.data();
  };
  const auto a = build(true);
  const auto b = build(false);
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.dropped, b.dropped);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].cycle, b.samples[i].cycle);
    EXPECT_EQ(a.samples[i].values, b.samples[i].values);
  }
}

TEST(Report, TimeSeriesBlockDeltaEncodesCounterTracks) {
  obs::TimeSeriesData d;
  d.label = "ts";
  d.period = 10;
  d.emitted = 3;
  d.tracks = {"reads", "depth"};
  d.kinds = {obs::StatKind::Counter, obs::StatKind::Gauge};
  d.samples.push_back({10, {5.0, 2.0}});
  d.samples.push_back({30, {12.0, 4.0}});
  obs::Report rep("tsx");
  rep.add_timeseries(d);
  std::ostringstream os;
  rep.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"timeseries\":["), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"ts\""), std::string::npos);
  EXPECT_NE(json.find("\"kinds\":[\"counter\",\"gauge\"]"), std::string::npos);
  // First sample absolute, second delta-encoded on the counter track only.
  EXPECT_NE(json.find("\"values\":[5,2]"), std::string::npos);
  EXPECT_NE(json.find("\"values\":[7,4]"), std::string::npos);
}

TEST(Report, NoTimeSeriesKeyWhenNoneRecorded) {
  obs::Report rep("none");
  std::ostringstream os;
  rep.write_json(os);
  EXPECT_EQ(os.str().find("\"timeseries\""), std::string::npos);
}

TEST(TraceSink, RingWrapsKeepingNewestEvents) {
  obs::TraceSink sink(8);
  for (Cycle c = 0; c < 20; ++c)
    sink.record(obs::TraceEvent{.cycle = c, .kind = obs::EventKind::DramCmd});
  EXPECT_EQ(sink.recorded(), 20u);
  EXPECT_EQ(sink.size(), 8u);
  EXPECT_EQ(sink.dropped(), 12u);
  const auto evs = sink.events();
  ASSERT_EQ(evs.size(), 8u);
  for (std::size_t i = 0; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].cycle, 12 + i);  // oldest retained first
}

TEST(TraceSink, PartiallyFilledReturnsInsertionOrder) {
  obs::TraceSink sink(16);
  sink.record(obs::TraceEvent{.cycle = 3});
  sink.record(obs::TraceEvent{.cycle = 5});
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 0u);
  const auto evs = sink.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].cycle, 3u);
  EXPECT_EQ(evs[1].cycle, 5u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.recorded(), 0u);
}

TEST(TraceSink, ZeroCapacityIsClampedToOne) {
  obs::TraceSink sink(0);
  EXPECT_GE(sink.capacity(), 1u);
  sink.record(obs::TraceEvent{.cycle = 1});
  EXPECT_EQ(sink.size(), 1u);
}

TEST(TraceSink, ChromeExportShapesSpansAndInstants) {
  obs::TraceSink sink(8);
  sink.record(obs::TraceEvent{.cycle = 100, .dur = 4, .kind = obs::EventKind::DramCmd,
                              .pid = 1, .tid = 2, .arg0 = 42, .name = "RD"});
  sink.record(obs::TraceEvent{.cycle = 200, .kind = obs::EventKind::SchedDecision});
  std::ostringstream os;
  sink.write_chrome_trace(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Span: complete event with duration.
  EXPECT_NE(json.find("\"name\":\"RD\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  // Instant: thread-scoped, name falls back to the kind.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sched-decision\""), std::string::npos);
  // Categories for viewer filtering.
  EXPECT_NE(json.find("\"cat\":\"dram\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"sched\""), std::string::npos);
}

TEST(TraceSink, ChromeExportCarriesDropMetadata) {
  obs::TraceSink sink(4);
  for (Cycle c = 0; c < 10; ++c)
    sink.record(obs::TraceEvent{.cycle = c, .kind = obs::EventKind::DramCmd});
  std::ostringstream os;
  sink.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"metadata\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":6"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
}

TEST(Json, StringEscaping) {
  std::ostringstream os;
  obs::write_json_string(os, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(Json, NumbersAreExactForIntegersAndNullForNonFinite) {
  std::ostringstream os;
  obs::write_json_number(os, 123456789.0);
  os << " ";
  obs::write_json_number(os, std::nan(""));
  os << " ";
  obs::write_json_number(os, 0.5);
  EXPECT_EQ(os.str().substr(0, 10), "123456789 ");
  EXPECT_NE(os.str().find("null"), std::string::npos);
  EXPECT_NE(os.str().find("0.5"), std::string::npos);
}

TEST(Json, WriterNestsObjectsAndArraysWithCommas) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object()
      .key("a").value(std::uint64_t{1})
      .key("b").begin_array().value("x").value("y").end_array()
      .key("c").begin_object().key("d").value(true).end_object()
      .end_object();
  EXPECT_EQ(os.str(), R"({"a":1,"b":["x","y"],"c":{"d":true}})");
}

TEST(Csv, QuotesFieldsWithSeparatorsAndQuotes) {
  std::ostringstream os;
  obs::write_csv_table(os, {"name", "note"},
                       {{"plain", "a,b"}, {"qu\"ote", "line\nbreak"}});
  EXPECT_EQ(os.str(),
            "name,note\n"
            "plain,\"a,b\"\n"
            "\"qu\"\"ote\",\"line\nbreak\"\n");
}

TEST(Report, JsonCarriesAllSections) {
  obs::Report rep("t1", "test report", "claim text");
  rep.set_shape("shape text");
  Table t({"col a", "col b"});
  t.add_row({"1", "2"});
  rep.add_table(t, "main");
  rep.add_metric("speedup", 2.5);

  obs::StatRegistry reg;
  std::uint64_t n = 3;
  reg.counter("x.n", &n);
  rep.add_snapshot(reg.snapshot());

  std::ostringstream os;
  rep.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"id\":\"t1\""), std::string::npos);
  EXPECT_NE(json.find("\"claim\":\"claim text\""), std::string::npos);
  EXPECT_NE(json.find("\"shape\":\"shape text\""), std::string::npos);
  EXPECT_NE(json.find("\"speedup\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"x.n\":3"), std::string::npos);
  EXPECT_NE(json.find("\"title\":\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"headers\":[\"col a\",\"col b\"]"), std::string::npos);
  EXPECT_NE(json.find("[\"1\",\"2\"]"), std::string::npos);
}

TEST(Report, CsvSeparatesMultipleTables) {
  obs::Report rep("t2");
  Table a({"h1"});
  a.add_row({"v1"});
  Table b({"h2"});
  b.add_row({"v2"});
  rep.add_table(a, "first");
  rep.add_table(b, "second");
  std::ostringstream os;
  rep.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("# first"), std::string::npos);
  EXPECT_NE(csv.find("# second"), std::string::npos);
  EXPECT_NE(csv.find("h1\nv1\n"), std::string::npos);
  EXPECT_NE(csv.find("h2\nv2\n"), std::string::npos);
}

TEST(Report, WriteFilesEmitsJsonAndCsv) {
  obs::Report rep("filetest", "file test");
  Table t({"k"});
  t.add_row({"v"});
  rep.add_table(t);

  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(rep.write_files(dir));
  std::ifstream js(dir + "/BENCH_filetest.json");
  std::ifstream cs(dir + "/BENCH_filetest.csv");
  EXPECT_TRUE(js.good());
  EXPECT_TRUE(cs.good());
  std::string line;
  std::getline(js, line);
  EXPECT_EQ(line.substr(0, 1), "{");
  std::remove((dir + "/BENCH_filetest.json").c_str());
  std::remove((dir + "/BENCH_filetest.csv").c_str());
}

}  // namespace
}  // namespace ima
