// Time-series history over the metrics registry: the flight recorder.
//
// `imp_metrics` answers "what is the value now"; this layer answers
// "what did it look like over the last hour" — the trend data the
// paper's autonomous-tuning loop needs to judge an action and the DBA
// needs to audit it. The storage daemon calls Sample() once per poll
// (~10s cadence); every registered counter/gauge value and each
// histogram's p50/p95/p99 lands in fixed-size multi-resolution ring
// buffers:
//
//   resolution   tick     capacity   span
//   raw          10 s     512        ~85 min
//   1m           60 s     256        ~4.3 h
//   10m          600 s    288        48 h
//
// Rollups happen at insert time: a recorded point merges into the
// newest entry of each ring whose bucket it falls in (min/max/sum/
// count/last), so the 1m and 10m rows are always consistent unions of
// the raw ticks they cover — no cascade thread, no flush ordering.
// Memory is strictly bounded: each series holds one RingBuffer per
// resolution (common/ring_buffer.h), reserved once at its capacity
// (~50 KB for the three), which wraps, evicting the oldest tick.
//
// Exposed live as the `imp_metrics_history` IMA table and persisted by
// the daemon into the retention-governed `wl_metrics_history`. Under
// -DIMON_METRICS=OFF (IMON_METRICS_DISABLED) every mutating entry
// point is a no-op and readers return empty — the subsystem costs
// nothing when the metrics layer is compiled out.

#ifndef IMON_COMMON_METRICS_HISTORY_H_
#define IMON_COMMON_METRICS_HISTORY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/ring_buffer.h"

namespace imon::metrics {

/// One materialized ring entry, for IMA snapshots and persistence.
struct HistorySample {
  std::string name;
  int32_t resolution = 0;   ///< bucket width in seconds (10 | 60 | 600)
  int64_t tick_micros = 0;  ///< bucket start (inclusive)
  int64_t min = 0;
  int64_t max = 0;
  int64_t sum = 0;
  int64_t count = 0;
  int64_t last = 0;
};

/// Merge of every ring entry inside a queried window.
struct HistoryAggregate {
  int64_t min = 0;
  int64_t max = 0;
  int64_t sum = 0;
  int64_t count = 0;
  int64_t last = 0;   ///< last value of the newest tick in the window
  int64_t ticks = 0;  ///< ring entries merged; 0 == empty window

  bool empty() const { return ticks == 0; }
  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

class MetricsHistory {
 public:
  static constexpr int kResolutions = 3;
  /// Bucket widths, seconds. Index doubles as the "resolution level".
  static constexpr int kResolutionSeconds[kResolutions] = {10, 60, 600};
  /// Entries retained per ring. Raw holds 512 * 10s ~= 85 minutes — the
  /// acceptance floor is one hour of 10s data in fixed memory.
  static constexpr size_t kRingCapacity[kResolutions] = {512, 256, 288};

  MetricsHistory() = default;
  MetricsHistory(const MetricsHistory&) = delete;
  MetricsHistory& operator=(const MetricsHistory&) = delete;

  /// Record one observation of a named series at `now_micros`. The value
  /// merges into the current bucket of all three rings (creating the
  /// series on first sight). Out-of-order timestamps never tear the
  /// rings: a point older than the newest bucket merges into it.
  void Record(std::string_view name, int64_t value, int64_t now_micros);

  /// Sample every registered metric: each counter/gauge records its
  /// value under its own name; each histogram records `<name>.p50/.p95/
  /// .p99` plus `<name>.count`. Called by the daemon once per poll.
  void Sample(const MetricsRegistry& registry, int64_t now_micros);

  /// Every retained entry of every series, ordered by
  /// (name, resolution, tick). Backs `imp_metrics_history`.
  std::vector<HistorySample> Snapshot() const;

  /// Merge all entries of `name`'s ring at `resolution_seconds` whose
  /// tick lies in [from_micros, to_micros]. Empty aggregate if the
  /// series or window is unknown.
  HistoryAggregate Aggregate(std::string_view name, int resolution_seconds,
                             int64_t from_micros, int64_t to_micros) const;

  /// Raw-resolution entries whose bucket is complete (tick + 10s <=
  /// now_micros) and newer than `min_tick_micros`. The daemon persists
  /// these and advances its cursor to the max returned tick, so each
  /// tick is written exactly once.
  std::vector<HistorySample> SnapshotRawCompletedSince(
      int64_t min_tick_micros, int64_t now_micros) const;

  size_t SeriesCount() const;

 private:
  struct Entry {
    int64_t tick = 0;
    int64_t min = 0;
    int64_t max = 0;
    int64_t sum = 0;
    int64_t count = 0;
    int64_t last = 0;
  };
  struct Series {
    RingBuffer<Entry> rings[kResolutions] = {
        RingBuffer<Entry>(kRingCapacity[0]),
        RingBuffer<Entry>(kRingCapacity[1]),
        RingBuffer<Entry>(kRingCapacity[2])};
  };

  Series& FindOrCreate(std::string_view name);

  mutable std::mutex mutex_;
  std::map<std::string, Series, std::less<>> series_;
};

}  // namespace imon::metrics

#endif  // IMON_COMMON_METRICS_HISTORY_H_
