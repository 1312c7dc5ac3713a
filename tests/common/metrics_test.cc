// Unit tests for the sharded metrics registry (common/metrics.h):
// counter monotonicity under concurrent writers, log2-histogram
// bucketing/quantiles, and registry handle stability. The MetricsTest
// suite also runs under ThreadSanitizer in tier-1.

#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

namespace imon::metrics {
namespace {

#ifndef IMON_METRICS_DISABLED

TEST(MetricsTest, CounterSumsAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int64_t kIncrements = 20000;
  Counter c;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int64_t i = 0; i < kIncrements; ++i) c.Add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kIncrements);
}

TEST(MetricsTest, CounterReadsAreMonotonicUnderWriters) {
  constexpr int kThreads = 3;
  constexpr int64_t kIncrements = 30000;
  Counter c;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int64_t i = 0; i < kIncrements; ++i) c.Add(2);
    });
  }
  // Racing reader: per-cell monotonic adds mean the summed value can lag
  // but can never go backwards.
  int64_t last = 0;
  while (last < kThreads * kIncrements * 2) {
    int64_t v = c.Value();
    EXPECT_GE(v, last);
    last = v;
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kIncrements * 2);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Add(-2);
  EXPECT_EQ(g.Value(), 40);
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
}

TEST(MetricsTest, HistogramBucketIsBitWidth) {
  EXPECT_EQ(Histogram::BucketFor(-5), 0);
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(1023), 10);
  EXPECT_EQ(Histogram::BucketFor(1024), 11);
  EXPECT_EQ(Histogram::BucketFor(std::numeric_limits<int64_t>::max()),
            Histogram::kBuckets - 1);
}

/// The bit-by-bit loop BucketFor used before std::bit_width.
int LoopBucketFor(int64_t value) {
  if (value <= 0) return 0;
  int width = 0;
  for (uint64_t v = static_cast<uint64_t>(value); v != 0; v >>= 1) ++width;
  return width < Histogram::kBuckets ? width : Histogram::kBuckets - 1;
}

TEST(MetricsTest, HistogramBucketMatchesBitLoopAtPowerEdges) {
  std::vector<int64_t> values = {0, 1, std::numeric_limits<int64_t>::max()};
  for (int k = 1; k < 63; ++k) {
    int64_t power = int64_t{1} << k;
    values.push_back(power - 1);
    values.push_back(power);
  }
  for (int64_t v : values) {
    EXPECT_EQ(Histogram::BucketFor(v), LoopBucketFor(v)) << v;
  }
}

TEST(MetricsTest, HistogramCountSumMaxAndQuantiles) {
  Histogram h;
  for (int64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.Count(), 100);
  EXPECT_EQ(h.Sum(), 5050);
  EXPECT_EQ(h.Max(), 100);

  int64_t p50 = h.ValueAtPercentile(50);
  int64_t p95 = h.ValueAtPercentile(95);
  int64_t p99 = h.ValueAtPercentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.Max());
  // Bucket upper bounds never under-report: each quantile is >= the true
  // value and <= the observed maximum.
  EXPECT_GE(p50, 50);
  EXPECT_GE(p95, 95);
  EXPECT_GE(p99, 99);
}

TEST(MetricsTest, RegistryHandlesAreStable) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("sub.a");
  Counter* a_again = registry.GetCounter("sub.a");
  Counter* b = registry.GetCounter("sub.b");
  EXPECT_EQ(a, a_again);
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.GetGauge("sub.g"), registry.GetGauge("sub.g"));
  EXPECT_EQ(registry.GetHistogram("sub.h"), registry.GetHistogram("sub.h"));
}

TEST(MetricsTest, SnapshotValuesIsNameSortedAndTyped) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Add(3);
  registry.GetCounter("alpha")->Add(1);
  registry.GetGauge("mid")->Set(-4);

  std::vector<MetricValue> values = registry.SnapshotValues();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].name, "alpha");
  EXPECT_STREQ(values[0].kind, "counter");
  EXPECT_EQ(values[0].value, 1);
  EXPECT_EQ(values[1].name, "mid");
  EXPECT_STREQ(values[1].kind, "gauge");
  EXPECT_EQ(values[1].value, -4);
  EXPECT_EQ(values[2].name, "zeta");
  EXPECT_STREQ(values[2].kind, "counter");
  EXPECT_EQ(values[2].value, 3);
}

TEST(MetricsTest, SnapshotHistogramsCarriesDerivedStats) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  h->Record(10);
  h->Record(1000);

  std::vector<HistogramStats> stats = registry.SnapshotHistograms();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "lat");
  EXPECT_EQ(stats[0].count, 2);
  EXPECT_EQ(stats[0].sum, 1010);
  EXPECT_EQ(stats[0].max, 1000);
  EXPECT_GE(stats[0].p99, stats[0].p50);
}

TEST(MetricsTest, ConcurrentRegistrationAndUpdates) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int64_t kIncrements = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      // Every thread find-or-creates the same handles while updating.
      for (int64_t i = 0; i < kIncrements; ++i) {
        registry.GetCounter("shared.counter")->Add();
        registry.GetHistogram("shared.hist")->Record(i + 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.GetCounter("shared.counter")->Value(),
            kThreads * kIncrements);
  EXPECT_EQ(registry.GetHistogram("shared.hist")->Count(),
            kThreads * kIncrements);
}

#else  // IMON_METRICS_DISABLED

TEST(MetricsTest, DisabledMutatorsAreNoOps) {
  Counter c;
  c.Add(5);
  EXPECT_EQ(c.Value(), 0);
  Gauge g;
  g.Set(7);
  g.Add(3);
  EXPECT_EQ(g.Value(), 0);
  Histogram h;
  h.Record(9);
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.Sum(), 0);
  EXPECT_EQ(h.Max(), 0);
}

#endif  // IMON_METRICS_DISABLED

// --- Log2Buckets ---------------------------------------------------------
//
// Unlike the telemetry types above, Log2Buckets is workload *data* (the
// per-template cost distributions behind imp_templates quantiles), so it
// is never compiled out and these tests run in every build flavor.

/// Reference quantile with the implementation's rank convention:
/// 0-based index floor(p/100 * n), clamped to n-1.
int64_t TrueQuantile(std::vector<int64_t> values, double p) {
  std::sort(values.begin(), values.end());
  auto n = static_cast<int64_t>(values.size());
  int64_t rank = static_cast<int64_t>(p / 100.0 * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return values[static_cast<size_t>(rank)];
}

/// The log2 accuracy contract: a reported quantile never under-reports
/// the true order statistic and overshoots it by strictly less than 2x
/// (bucket upper bound 2^i - 1, clamped to the observed max).
void ExpectWithinLog2Envelope(const Log2Buckets& buckets,
                              const std::vector<int64_t>& values, double p) {
  int64_t truth = TrueQuantile(values, p);
  int64_t reported = buckets.ValueAtPercentile(p);
  EXPECT_GE(reported, truth) << "p" << p;
  EXPECT_LT(reported, 2 * truth) << "p" << p;
  EXPECT_LE(reported, *std::max_element(values.begin(), values.end()))
      << "p" << p;
}

TEST(Log2BucketsTest, ConstantDistributionIsExact) {
  Log2Buckets b;
  std::vector<int64_t> values(500, 777);
  for (int64_t v : values) b.Record(v);
  EXPECT_EQ(b.count, 500);
  EXPECT_EQ(b.max, 777);
  // Every quantile clamps to the observed max: exact for constants.
  EXPECT_EQ(b.ValueAtPercentile(50), 777);
  EXPECT_EQ(b.ValueAtPercentile(95), 777);
  EXPECT_EQ(b.ValueAtPercentile(99), 777);
}

TEST(Log2BucketsTest, BimodalDistributionWithinErrorBounds) {
  Log2Buckets b;
  std::vector<int64_t> values;
  for (int i = 0; i < 450; ++i) values.push_back(10);     // fast mode
  for (int i = 0; i < 50; ++i) values.push_back(9000);    // slow mode
  for (int64_t v : values) b.Record(v);
  ExpectWithinLog2Envelope(b, values, 50);
  ExpectWithinLog2Envelope(b, values, 95);
  ExpectWithinLog2Envelope(b, values, 99);
  // The slow mode tops out at the observed max, reported exactly.
  EXPECT_EQ(b.ValueAtPercentile(99), 9000);
}

TEST(Log2BucketsTest, HeavyTailDistributionWithinErrorBounds) {
  // Deterministic power-law-ish tail: v = i^3 + 1 spans seven orders of
  // magnitude over 1000 samples.
  Log2Buckets b;
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 1000; ++i) values.push_back(i * i * i + 1);
  for (int64_t v : values) b.Record(v);
  for (double p : {50.0, 95.0, 99.0}) ExpectWithinLog2Envelope(b, values, p);
}

TEST(Log2BucketsTest, MergeMatchesUnionRecording) {
  Log2Buckets left, right, whole;
  std::vector<int64_t> values;
  for (int64_t i = 1; i <= 600; ++i) values.push_back(i * 17 % 4096 + 1);
  for (size_t i = 0; i < values.size(); ++i) {
    (i % 2 == 0 ? left : right).Record(values[i]);
    whole.Record(values[i]);
  }
  left.Merge(right);
  EXPECT_EQ(left.count, whole.count);
  EXPECT_EQ(left.max, whole.max);
  EXPECT_EQ(left.counts, whole.counts);
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_EQ(left.ValueAtPercentile(p), whole.ValueAtPercentile(p));
  }
}

TEST(Log2BucketsTest, EdgeValuesDoNotOverflowBuckets) {
  Log2Buckets b;
  b.Record(0);
  b.Record(-5);
  b.Record(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(b.count, 3);
  EXPECT_EQ(b.max, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(b.ValueAtPercentile(0), 0);
  EXPECT_EQ(b.ValueAtPercentile(100), std::numeric_limits<int64_t>::max());
}

}  // namespace
}  // namespace imon::metrics
