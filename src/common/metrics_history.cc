#include "common/metrics_history.h"

#include <algorithm>

namespace imon::metrics {

namespace {
int64_t BucketFor(int64_t now_micros, int resolution_seconds) {
  int64_t res = static_cast<int64_t>(resolution_seconds) * 1'000'000;
  int64_t r = now_micros % res;
  if (r < 0) r += res;  // floor for pre-epoch simulated clocks
  return now_micros - r;
}
}  // namespace

MetricsHistory::Series& MetricsHistory::FindOrCreate(std::string_view name) {
  auto it = series_.find(name);
  if (it == series_.end()) it = series_.try_emplace(std::string(name)).first;
  return it->second;
}

void MetricsHistory::Record(std::string_view name, int64_t value,
                            int64_t now_micros) {
#ifndef IMON_METRICS_DISABLED
  std::lock_guard<std::mutex> lock(mutex_);
  Series& s = FindOrCreate(name);
  for (int r = 0; r < kResolutions; ++r) {
    RingBuffer<Entry>& ring = s.rings[r];
    int64_t bucket = BucketFor(now_micros, kResolutionSeconds[r]);
    if (ring.size() > 0) {
      Entry& newest = ring.back();
      // Same bucket — or a late/backwards timestamp — merges; the rings
      // stay tick-monotonic no matter what the clock does.
      if (bucket <= newest.tick) {
        newest.min = std::min(newest.min, value);
        newest.max = std::max(newest.max, value);
        newest.sum += value;
        newest.count += 1;
        newest.last = value;
        continue;
      }
    }
    ring.Push(Entry{bucket, value, value, value, 1, value});
  }
#else
  (void)name;
  (void)value;
  (void)now_micros;
#endif
}

void MetricsHistory::Sample(const MetricsRegistry& registry,
                            int64_t now_micros) {
#ifndef IMON_METRICS_DISABLED
  for (const MetricValue& v : registry.SnapshotValues()) {
    Record(v.name, v.value, now_micros);
  }
  for (const HistogramStats& h : registry.SnapshotHistograms()) {
    Record(h.name + ".p50", h.p50, now_micros);
    Record(h.name + ".p95", h.p95, now_micros);
    Record(h.name + ".p99", h.p99, now_micros);
    Record(h.name + ".count", h.count, now_micros);
  }
#else
  (void)registry;
  (void)now_micros;
#endif
}

std::vector<HistorySample> MetricsHistory::Snapshot() const {
  std::vector<HistorySample> out;
#ifndef IMON_METRICS_DISABLED
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, s] : series_) {
    for (int r = 0; r < kResolutions; ++r) {
      const RingBuffer<Entry>& ring = s.rings[r];
      for (size_t i = 0; i < ring.size(); ++i) {
        const Entry& e = ring[i];
        out.push_back(HistorySample{name, kResolutionSeconds[r], e.tick,
                                    e.min, e.max, e.sum, e.count, e.last});
      }
    }
  }
#endif
  return out;
}

HistoryAggregate MetricsHistory::Aggregate(std::string_view name,
                                           int resolution_seconds,
                                           int64_t from_micros,
                                           int64_t to_micros) const {
  HistoryAggregate agg;
#ifndef IMON_METRICS_DISABLED
  int level = -1;
  for (int r = 0; r < kResolutions; ++r) {
    if (kResolutionSeconds[r] == resolution_seconds) level = r;
  }
  if (level < 0) return agg;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(name);
  if (it == series_.end()) return agg;
  const RingBuffer<Entry>& ring = it->second.rings[level];
  for (size_t i = 0; i < ring.size(); ++i) {
    const Entry& e = ring[i];
    if (e.tick < from_micros || e.tick > to_micros) continue;
    if (agg.ticks == 0) {
      agg.min = e.min;
      agg.max = e.max;
    } else {
      agg.min = std::min(agg.min, e.min);
      agg.max = std::max(agg.max, e.max);
    }
    agg.sum += e.sum;
    agg.count += e.count;
    agg.last = e.last;  // entries are tick-ascending; last wins
    agg.ticks += 1;
  }
#else
  (void)name;
  (void)resolution_seconds;
  (void)from_micros;
  (void)to_micros;
#endif
  return agg;
}

std::vector<HistorySample> MetricsHistory::SnapshotRawCompletedSince(
    int64_t min_tick_micros, int64_t now_micros) const {
  std::vector<HistorySample> out;
#ifndef IMON_METRICS_DISABLED
  constexpr int64_t kRawMicros =
      static_cast<int64_t>(kResolutionSeconds[0]) * 1'000'000;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, s] : series_) {
    const RingBuffer<Entry>& ring = s.rings[0];
    for (size_t i = 0; i < ring.size(); ++i) {
      const Entry& e = ring[i];
      if (e.tick <= min_tick_micros) continue;
      if (e.tick + kRawMicros > now_micros) continue;  // still open
      out.push_back(HistorySample{name, kResolutionSeconds[0], e.tick,
                                  e.min, e.max, e.sum, e.count, e.last});
    }
  }
#else
  (void)min_tick_micros;
  (void)now_micros;
#endif
  return out;
}

size_t MetricsHistory::SeriesCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

}  // namespace imon::metrics
