// Allocation guard for the monitored statement path. The binary replaces
// the global operator new with a counting one, so it runs alone: the
// counts include every heap allocation made on any thread of the process.
//
// The invariant (DESIGN.md §7): on a warm template, monitoring adds no
// heap allocation to a statement. The session's trace keeps its buffers,
// and Commit overwrites its ring slots and recycles the evicted registry
// entry in place.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"
#include "engine/database.h"
#include "monitor/monitor.h"
#include "sql/lexer.h"
#include "sql/normalizer.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(align);
  std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replacement below allocates with malloc or aligned_alloc and
// frees with free, which GCC cannot see across the replaced operators.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace imon {
namespace {

int64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// Point selects with distinct key literals, so every statement is a new
/// registry entry of one template — the paper's 1m test. All texts have
/// the same length.
std::vector<std::string> PointSelects(int first_key, int count) {
  std::vector<std::string> out;
  out.reserve(count);
  for (int k = first_key; k < first_key + count; ++k) {
    out.push_back("SELECT nref_id, seq_length FROM protein WHERE nref_id = " +
                  std::to_string(k));
  }
  return out;
}

constexpr int kRows = 9000;  // keys 1000..9999: four digits each

std::unique_ptr<engine::Database> MakeDb(bool monitored) {
  engine::DatabaseOptions options;
  options.monitor.enabled = monitored;
  options.monitor.shards = 1;
  options.exec_workers = 1;
  options.plan_cache_capacity = 0;
  auto db = std::make_unique<engine::Database>(options);
  EXPECT_TRUE(db->Execute("CREATE TABLE protein (nref_id INT PRIMARY KEY, "
                          "sequence TEXT, seq_length INT)")
                  .ok());
  for (int begin = 1000; begin < 1000 + kRows; begin += 500) {
    std::string sql = "INSERT INTO protein VALUES ";
    for (int k = begin; k < begin + 500; ++k) {
      if (k > begin) sql += ", ";
      sql += "(" + std::to_string(k) + ", 'MKV', " + std::to_string(k % 97) +
             ")";
    }
    EXPECT_TRUE(db->Execute(sql).ok());
  }
  return db;
}

/// Heap allocations of running `texts` on `session`, results included.
int64_t CountRun(engine::Database* db, engine::Session* session,
                 const std::vector<std::string>& texts) {
  int64_t before = Allocations();
  for (const std::string& sql : texts) {
    auto r = db->Execute(sql, session);
    EXPECT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r.ok() ? r->rows.size() : 0u, 1u);
  }
  return Allocations() - before;
}

TEST(AllocationGuardTest, WarmMonitoredPointSelectAllocatesNoMoreThanTwin) {
  auto monitored = MakeDb(true);
  auto twin = MakeDb(false);
  auto monitored_session = monitored->CreateSession();
  auto twin_session = twin->CreateSession();
  // Warm up past every monitor window (statement registry 1000 entries,
  // workload ring 4000, trace ring 4096 records), so the measured
  // statements evict and overwrite.
  std::vector<std::string> warm = PointSelects(1000, 5000);
  CountRun(monitored.get(), monitored_session.get(), warm);
  CountRun(twin.get(), twin_session.get(), warm);

  std::vector<std::string> measured = PointSelects(6000, 2000);
  int64_t with_monitor =
      CountRun(monitored.get(), monitored_session.get(), measured);
  int64_t without = CountRun(twin.get(), twin_session.get(), measured);
  EXPECT_LE(with_monitor, without)
      << "per statement: " << static_cast<double>(with_monitor) / 2000.0
      << " monitored vs " << static_cast<double>(without) / 2000.0;
  EXPECT_EQ(monitored->monitor()->counters().statements_committed,
            static_cast<int64_t>(1 + kRows / 500 + 7000));
}

TEST(AllocationGuardTest, CommitAllocatesNothingOnWarmTemplateFullRegistry) {
  monitor::MonitorConfig config;
  config.shards = 1;
  config.stats_sample_every = 0;
  config.statement_window = 64;
  config.workload_window = 128;
  config.references_window = 512;
  config.trace_window = 256;
  monitor::Monitor m(config, RealClock::Instance());
  metrics::MetricsRegistry registry;
  m.AttachMetrics(&registry);

  std::vector<std::string> texts = PointSelects(1000, 2000);
  std::vector<uint64_t> hashes;
  for (const std::string& t : texts) hashes.push_back(HashStatement(t));
  const uint64_t fingerprint =
      sql::TemplateFingerprint(*sql::Tokenize(texts.front()));
  const std::vector<monitor::ObjectId> used_index = {7};

  monitor::QueryTrace trace;
  int64_t commit_allocations = 0;
  for (size_t i = 0; i < texts.size(); ++i) {
    trace.Reset();
    m.OnQueryStart(&trace, 1);
    m.OnParseComplete(&trace, texts[i], hashes[i], fingerprint);
    m.OnBindComplete(&trace, std::vector<monitor::ObjectId>{1},
                     std::vector<std::pair<monitor::ObjectId, int>>{{1, 0}},
                     std::vector<monitor::ObjectId>{7});
    m.OnOptimizeComplete(&trace, 1.0, 2.0, used_index, 500, 0);
    m.OnExecuteComplete(&trace, 1000, 0, 3.0, 1, 1);
    int64_t before = Allocations();
    m.Commit(&trace);
    // Past the first 1000 commits every window is full and the template
    // is warm: each commit is a new registry entry evicting the oldest.
    if (i >= 1000) commit_allocations += Allocations() - before;
  }
  EXPECT_EQ(commit_allocations, 0);
  EXPECT_EQ(m.SnapshotStatements().size(), 64u);
  EXPECT_EQ(m.SnapshotTemplates().size(), 1u);
  EXPECT_EQ(m.SnapshotTemplates()[0].executions, 2000);
}

}  // namespace
}  // namespace imon
