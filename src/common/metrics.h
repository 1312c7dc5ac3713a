// Engine-wide self-observability: a sharded, lock-free metrics registry.
//
// The paper's thesis is that monitoring lives *inside* the DBMS and is
// queryable over plain SQL (IMA). The monitor covers statements; this
// registry covers the engine's own subsystems — buffer pool, lock
// manager, plan cache, storage daemon, analyzer — and is exposed as the
// `imp_metrics` / `imp_stage_latency` IMA virtual tables.
//
// Design:
//   * Handles (Counter*, Gauge*, Histogram*) are obtained once at wire-up
//     time through the registry (mutex-guarded, cold) and are stable for
//     the registry's lifetime; the hot-path operations on a handle are
//     single relaxed atomic ops — no locks, no allocation, wait-free.
//   * Counters are sharded over cache-line-padded cells (thread id picks
//     the cell) so concurrent increments from many sessions do not
//     ping-pong one line. Reads sum the cells; per-cell monotonicity
//     makes repeated reads of a counter monotonically non-decreasing.
//   * Histograms bucket values by log2 (64 buckets) and support
//     approximate quantile extraction (p50/p95/p99) plus exact count,
//     sum and max — enough for latency telemetry at ~1 atomic add per
//     record.
//
// Compile-time kill switch: configuring with -DIMON_METRICS=OFF defines
// IMON_METRICS_DISABLED and reduces every mutating operation to an
// inline no-op, so `bench/observability_overhead` can measure the true
// instrumented-vs-compiled-out cost (tier-1 gates it at < 5 %).

#ifndef IMON_COMMON_METRICS_H_
#define IMON_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace imon::metrics {

namespace internal {
/// Cell index for the calling thread (stable per thread, cheap).
size_t ThreadCell(size_t cells);
}  // namespace internal

/// Monotonically increasing 64-bit counter, sharded to avoid contention.
class Counter {
 public:
  static constexpr size_t kCells = 8;

  void Add(int64_t delta = 1) {
#ifndef IMON_METRICS_DISABLED
    cells_[internal::ThreadCell(kCells)].v.fetch_add(
        delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };
  std::array<Cell, kCells> cells_;
};

/// Last-value-wins instantaneous metric (one atomic slot).
class Gauge {
 public:
  void Set(int64_t value) {
#ifndef IMON_METRICS_DISABLED
    v_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }
  void Add(int64_t delta) {
#ifndef IMON_METRICS_DISABLED
    v_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log2-bucketed latency histogram. Bucket i counts values whose bit
/// width is i, i.e. v in [2^(i-1), 2^i - 1]; non-positive values land in
/// bucket 0. Quantiles report the bucket's upper bound clamped to the
/// observed maximum — a <= 2x overestimate by construction, which is
/// exactly the fidelity the paper's coarse overhead budget needs.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t value) {
#ifndef IMON_METRICS_DISABLED
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.Add(value);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
#else
    (void)value;
#endif
  }

  /// Record() plus a wall-clock stamp of the observation, so readers
  /// (imp_stage_latency, alert rules) can detect stale stages. One extra
  /// relaxed store on the hot path; last-writer-wins is fine — the stamp
  /// answers "has this moved recently", not "what moved last".
  void RecordAt(int64_t value, int64_t now_micros) {
#ifndef IMON_METRICS_DISABLED
    Record(value);
    last_update_micros_.store(now_micros, std::memory_order_relaxed);
#else
    (void)value;
    (void)now_micros;
#endif
  }

  int64_t Count() const;
  int64_t Sum() const { return sum_.Value(); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }
  int64_t LastUpdateMicros() const {
    return last_update_micros_.load(std::memory_order_relaxed);
  }

  /// Approximate value at percentile p in [0, 100].
  int64_t ValueAtPercentile(double p) const;

  static int BucketFor(int64_t value) {
    if (value <= 0) return 0;
    int width = std::bit_width(static_cast<uint64_t>(value));
    return width < kBuckets ? width : kBuckets - 1;
  }

 private:
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
  Counter sum_;
  std::atomic<int64_t> max_{0};
  std::atomic<int64_t> last_update_micros_{0};
};

/// Plain (externally synchronized) log2 bucket array sharing Histogram's
/// bucket math. Unlike Histogram this is workload DATA, not telemetry:
/// per-template cost quantiles in the monitor's compression layer live in
/// these under the shard lock, are mergeable across shards, and stay
/// active when the metrics layer is compiled out. Quantiles report the
/// bucket upper bound clamped to the observed max (<= 2x overestimate by
/// construction) — recommendations never depend on them, so the error
/// budget is purely a telemetry-fidelity bound (see metrics_test.cc).
struct Log2Buckets {
  std::array<int64_t, Histogram::kBuckets> counts{};
  int64_t count = 0;
  int64_t max = 0;

  void Record(int64_t value) {
    ++counts[Histogram::BucketFor(value)];
    ++count;
    if (value > max) max = value;
  }
  void Merge(const Log2Buckets& other) {
    for (int i = 0; i < Histogram::kBuckets; ++i) counts[i] += other.counts[i];
    count += other.count;
    if (other.max > max) max = other.max;
  }
  /// Same semantics as Histogram::ValueAtPercentile, p in [0, 100].
  int64_t ValueAtPercentile(double p) const;
};

/// One named counter/gauge value for IMA materialization.
struct MetricValue {
  std::string name;
  const char* kind;  ///< "counter" | "gauge"
  int64_t value;
};

/// One named histogram summary for IMA materialization.
struct HistogramStats {
  std::string name;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;
  int64_t p50 = 0;
  int64_t p95 = 0;
  int64_t p99 = 0;
  int64_t last_update_micros = 0;  ///< 0 until a RecordAt() lands
};

/// Histogram's data as plain integers, for a writer that already holds a
/// lock: the monitor's commit shards keep their stage latencies in these
/// and merge them on read (MetricsRegistry::AddHistogramSource).
struct LockedHistogram {
  Log2Buckets buckets;
  int64_t sum = 0;
  int64_t last_update_micros = 0;

  void RecordAt(int64_t value, int64_t now_micros) {
    buckets.Record(value);
    sum += value;
    last_update_micros = now_micros;
  }
  /// Sums the counts; the later of the two update stamps wins.
  void Merge(const LockedHistogram& other);
  HistogramStats Stats(std::string name) const;
};

/// Owner of all named metrics. Registration (name -> stable handle) is
/// mutex-guarded; metric updates/reads through the handles never touch
/// the registry again.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create; the returned pointer is valid for the registry's
  /// lifetime. Repeated calls with the same name return the same handle.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// All counters + gauges, name-sorted (counters first per name map).
  std::vector<MetricValue> SnapshotValues() const;
  /// All histograms with derived quantiles, name-sorted, including those
  /// the histogram sources add.
  std::vector<HistogramStats> SnapshotHistograms() const;

  /// Histograms kept outside the registry: while the owner keeps
  /// `source` alive, it appends their stats to every SnapshotHistograms.
  /// The source runs under the registry mutex, so it must not call back
  /// into the registry.
  using HistogramSource = std::function<void(std::vector<HistogramStats>*)>;
  void AddHistogramSource(std::weak_ptr<const HistogramSource> source);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<std::weak_ptr<const HistogramSource>> histogram_sources_;
};

}  // namespace imon::metrics

#endif  // IMON_COMMON_METRICS_H_
