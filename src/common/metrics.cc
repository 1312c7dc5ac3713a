#include "common/metrics.h"

#include <algorithm>

namespace imon::metrics {

namespace internal {

size_t ThreadCell(size_t cells) {
  // Hash the thread id once per thread; thread_local caching keeps the
  // hot path at a TLS read + mask.
  static thread_local size_t cached =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return cached & (cells - 1);
}

}  // namespace internal

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

int64_t Histogram::ValueAtPercentile(double p) const {
  // Snapshot the buckets once so rank and walk agree even under writes.
  std::array<int64_t, kBuckets> snap;
  int64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap[i];
  }
  if (total == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  int64_t rank = static_cast<int64_t>(p / 100.0 * static_cast<double>(total));
  if (rank >= total) rank = total - 1;
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += snap[i];
    if (seen > rank) {
      // Upper bound of bucket i is 2^i - 1 (bucket 0 holds <= 0).
      int64_t upper =
          i == 0 ? 0 : static_cast<int64_t>((uint64_t{1} << i) - 1);
      int64_t max = Max();
      return max > 0 ? std::min(upper, max) : upper;
    }
  }
  return Max();
}

int64_t Log2Buckets::ValueAtPercentile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  int64_t rank = static_cast<int64_t>(p / 100.0 * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  int64_t seen = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    seen += counts[i];
    if (seen > rank) {
      int64_t upper =
          i == 0 ? 0 : static_cast<int64_t>((uint64_t{1} << i) - 1);
      return max > 0 ? std::min(upper, max) : upper;
    }
  }
  return max;
}

void LockedHistogram::Merge(const LockedHistogram& other) {
  buckets.Merge(other.buckets);
  sum += other.sum;
  last_update_micros = std::max(last_update_micros, other.last_update_micros);
}

HistogramStats LockedHistogram::Stats(std::string name) const {
  HistogramStats s;
  s.name = std::move(name);
  s.count = buckets.count;
  s.sum = sum;
  s.max = buckets.max;
  s.p50 = buckets.ValueAtPercentile(50.0);
  s.p95 = buckets.ValueAtPercentile(95.0);
  s.p99 = buckets.ValueAtPercentile(99.0);
  s.last_update_micros = last_update_micros;
  return s;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

std::vector<MetricValue> MetricsRegistry::SnapshotValues() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricValue> out;
  out.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, c] : counters_) {
    out.push_back({name, "counter", c->Value()});
  }
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, "gauge", g->Value()});
  }
  std::sort(out.begin(), out.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<HistogramStats> MetricsRegistry::SnapshotHistograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<HistogramStats> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramStats s;
    s.name = name;
    s.count = h->Count();
    s.sum = h->Sum();
    s.max = h->Max();
    s.p50 = h->ValueAtPercentile(50.0);
    s.p95 = h->ValueAtPercentile(95.0);
    s.p99 = h->ValueAtPercentile(99.0);
    s.last_update_micros = h->LastUpdateMicros();
    out.push_back(std::move(s));
  }
  if (!histogram_sources_.empty()) {
    for (const auto& weak : histogram_sources_) {
      if (auto source = weak.lock()) (*source)(&out);
    }
    std::sort(out.begin(), out.end(),
              [](const HistogramStats& a, const HistogramStats& b) {
                return a.name < b.name;
              });
  }
  return out;
}

void MetricsRegistry::AddHistogramSource(
    std::weak_ptr<const HistogramSource> source) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(histogram_sources_,
                [](const auto& weak) { return weak.expired(); });
  histogram_sources_.push_back(std::move(source));
}

}  // namespace imon::metrics
