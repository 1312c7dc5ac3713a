#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "common/clock.h"
#include "testing/oracle.h"

namespace perfbench {

using imon::engine::Database;
using imon::engine::DatabaseOptions;
using imon::engine::QueryResult;

namespace {

std::atomic<uint64_t> calibration_sink;

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::Note(const std::string& key, const std::string& json_object) {
  notes_.push_back({key, json_object});
}

void Report::Print() const {
  for (const auto& [key, json] : notes_) {
    std::printf("%s: %s\n", key.c_str(), json.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Number(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void Latencies::Append(const Latencies& other, double scale) {
  for (int64_t v : other.samples_) {
    samples_.push_back(scale == 1.0 ? v
                                    : static_cast<int64_t>(
                                          static_cast<double>(v) * scale));
  }
}

double Latencies::PercentileMicros(double p) const {
  if (samples_.empty()) return 0;
  std::vector<int64_t> v = samples_;
  size_t idx = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  idx = std::clamp<size_t>(idx, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]) / 1000.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

uint64_t ResultDigest(const QueryResult& result) {
  return std::hash<std::string>{}(imon::testing::Fingerprint(result));
}

uint64_t ResultDigest(const std::vector<std::string>& columns,
                      const std::vector<imon::Row>& rows) {
  QueryResult qr;
  qr.columns = columns;
  qr.rows = rows;
  return ResultDigest(qr);
}

Zipf::Zipf(int64_t n, double theta) : cdf_(static_cast<size_t>(n)) {
  double total = 0;
  for (int64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[static_cast<size_t>(i)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int64_t Zipf::Next(std::mt19937_64* rng) const {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return it - cdf_.begin();
}

DatabaseOptions MakeDbOptions(const DbKnobs& knobs) {
  DatabaseOptions o;
  o.name = knobs.name;
  o.monitor = imon::monitor::MonitorConfig{};
  o.monitor.enabled = knobs.monitor;
  o.monitor.statement_window = 1000;
  o.monitor.workload_window = 4000;
  o.monitor.references_window = 16000;
  o.monitor.statistics_window = 4096;
  o.monitor.stats_sample_every = 64;
  o.monitor.shards = 4;
  o.monitor.commit_stall_nanos = 0;
  o.monitor.trace_window = 4096;
  o.monitor.template_window = 4096;
  o.monitor.sample_seed = 0x1e55eedULL;
  o.buffer_pool_pages = knobs.buffer_pool_pages;
  o.simulated_io_latency_nanos = 0;
  o.clock = nullptr;
  o.cost_model = imon::optimizer::CostModel{};
  o.lock_timeout = std::chrono::seconds(10);
  o.default_main_pages = 8;
  o.plan_cache_capacity = knobs.plan_cache_capacity;
  o.exec_batch_size = 1024;
  o.use_compiled_exprs = true;
  o.exec_workers = knobs.exec_workers;
  o.exec_morsel_pages = 32;
  o.buffer_pool_shards = knobs.buffer_pool_shards;
  return o;
}

imon::server::ServerOptions MakeServerOptions() {
  imon::server::ServerOptions o;
  o.host = "127.0.0.1";
  o.port = 0;
  o.event_threads = 1;
  o.executor_threads = 2;
  o.queue_depth = 256;
  o.max_frame_bytes = 1 << 20;
  o.max_write_buffer_bytes = 8u << 20;
  o.idle_timeout = std::chrono::milliseconds(0);
  o.drain_timeout = std::chrono::milliseconds(5000);
  o.listen_backlog = 512;
  o.fault_hooks = {};
  return o;
}

imon::workload::NrefConfig MakeNref(const Args& args) {
  imon::workload::NrefConfig c;
  c.proteins = args.smoke ? 2000 : 20000;
  c.seed = args.seed;
  c.main_pages = 16;
  c.taxa = 400;
  return c;
}

std::string DbOptionsJson(const DatabaseOptions& o) {
  std::ostringstream s;
  s << "{\"name\": \"" << o.name << "\", \"monitor.enabled\": "
    << (o.monitor.enabled ? "true" : "false")
    << ", \"monitor.shards\": " << o.monitor.shards
    << ", \"monitor.stats_sample_every\": " << o.monitor.stats_sample_every
    << ", \"monitor.trace_window\": " << o.monitor.trace_window
    << ", \"buffer_pool_pages\": " << o.buffer_pool_pages
    << ", \"buffer_pool_shards\": " << o.buffer_pool_shards
    << ", \"plan_cache_capacity\": " << o.plan_cache_capacity
    << ", \"exec_workers\": " << o.exec_workers
    << ", \"exec_batch_size\": " << o.exec_batch_size
    << ", \"exec_morsel_pages\": " << o.exec_morsel_pages
    << ", \"use_compiled_exprs\": " << (o.use_compiled_exprs ? "true" : "false")
    << ", \"lock_timeout_ms\": " << o.lock_timeout.count()
    << ", \"default_main_pages\": " << o.default_main_pages
    << ", \"simulated_io_latency_nanos\": " << o.simulated_io_latency_nanos
    << "}";
  return s.str();
}

std::string ServerOptionsJson(const imon::server::ServerOptions& o) {
  std::ostringstream s;
  s << "{\"event_threads\": " << o.event_threads
    << ", \"executor_threads\": " << o.executor_threads
    << ", \"queue_depth\": " << o.queue_depth
    << ", \"max_frame_bytes\": " << o.max_frame_bytes
    << ", \"max_write_buffer_bytes\": " << o.max_write_buffer_bytes
    << ", \"idle_timeout_ms\": " << o.idle_timeout.count()
    << ", \"drain_timeout_ms\": " << o.drain_timeout.count()
    << ", \"listen_backlog\": " << o.listen_backlog << "}";
  return s.str();
}

imon::Result<QueryResult> ExecInternal(Database* db, const std::string& sql) {
  auto session = db->CreateInternalSession();
  return db->Execute(sql, session.get());
}

namespace {

constexpr double kReferenceNanos = 2.5e6;
constexpr uint64_t kKernelEntries = 8192;
constexpr char kKernelPrefix[] = "SELECT nref_id FROM protein WHERE nref_id = ";

/// Formats statement text `i` into `buf` (no allocation); returns it.
std::string_view KernelText(uint64_t i, char (&buf)[64]) {
  size_t n = sizeof(kKernelPrefix) - 1;
  std::memcpy(buf, kKernelPrefix, n);
  char* end = std::to_chars(buf + n, buf + sizeof(buf), i * 7919 % 100000).ptr;
  return std::string_view(buf, static_cast<size_t>(end - buf));
}

/// The kernel's data, about 1.5 MB: statement texts in a hash map and
/// integer keys in an ordered map. Built once; the kernel itself does
/// not allocate, so the library's use of the heap cannot change its time.
struct KernelData {
  std::vector<std::string> texts;
  std::unordered_map<std::string_view, uint64_t> index;
  std::map<uint64_t, uint64_t> keys;
};

const KernelData& Data() {
  static const KernelData data = [] {
    KernelData d;
    char buf[64];
    d.texts.reserve(kKernelEntries);
    for (uint64_t i = 0; i < kKernelEntries; ++i) {
      d.texts.emplace_back(KernelText(i, buf));
      d.keys[i * 2654435761ULL % 1000003] = i;
    }
    for (uint64_t i = 0; i < kKernelEntries; ++i) d.index[d.texts[i]] = i;
    return d;
  }();
  return data;
}

}  // namespace

double KernelNanos() {
  const KernelData& d = Data();
  uint64_t acc = 0;
  // An untimed pass over all of the data first, so the timed chunks find
  // it in cache whatever the workload left there.
  for (const auto& [text, v] : d.index) acc += v + static_cast<uint64_t>(text.back());
  for (const auto& [k, v] : d.keys) acc += k ^ v;
  double chunks[5];
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  char buf[64];
  uint64_t row[16];
  for (double& chunk : chunks) {
    int64_t start = imon::MonotonicNanos();
    for (int i = 0; i < 1500; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      acc += d.index.find(KernelText((x >> 33) % kKernelEntries, buf))->second;
      size_t width = 8 + (x & 7);
      for (size_t j = 0; j < width; ++j) row[j] = acc + j;
      auto node = d.keys.lower_bound((x >> 20) % 1000003);
      for (int j = 0; j < 4 && node != d.keys.end(); ++j, ++node) {
        acc += node->second + row[width - 1];
      }
    }
    chunk = static_cast<double>(imon::MonotonicNanos() - start);
  }
  // Keeps the work from being optimized away.
  calibration_sink.store(acc, std::memory_order_relaxed);
  std::sort(chunks, chunks + 5);
  return chunks[2] * 5;
}

double SpeedScale(double kernel_before, double kernel_after) {
  return kReferenceNanos / ((kernel_before + kernel_after) / 2);
}

int64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t fields[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1;
  for (int64_t& f : fields) in >> f;
  return fields[7];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Seconds(int64_t nanos) { return static_cast<double>(nanos) / 1e9; }

}  // namespace perfbench
