// IMA coverage for the self-observability tables: imp_metrics,
// imp_stage_latency, imp_traces, plus the per-shard imp_monitor rows.
// All telemetry must be reachable over ordinary SQL (the paper's IMA
// thesis applied to the engine's own subsystems).
//
// The ImaObservabilityTest suite also runs under ThreadSanitizer in
// tier-1; RegistryHammerWithSqlReader is the cross-thread stress:
// N writers hit one counter handle while SQL scans of imp_metrics race
// them, asserting monotonic (never torn, never backwards) reads.

#include "ima/ima.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/metrics_history.h"
#include "engine/database.h"

namespace imon::ima {
namespace {

using engine::Database;
using engine::DatabaseOptions;
using engine::QueryResult;

class ImaObservabilityTest : public ::testing::Test {
 protected:
  ImaObservabilityTest() {
    DatabaseOptions options;
    options.plan_cache_capacity = 64;
    options.monitor.stats_sample_every = 0;
    db_ = std::make_unique<Database>(options);
    EXPECT_TRUE(RegisterImaTables(db_.get()).ok());
  }

  QueryResult MustExec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? r.TakeValue() : QueryResult{};
  }

  void RunSmallWorkload() {
    MustExec("CREATE TABLE t (v INT PRIMARY KEY, w INT)");
    for (int i = 0; i < 20; ++i) {
      MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", 0)");
    }
    // The identical statement repeats so the plan cache records hits and
    // the buffer pool re-reads warm pages.
    for (int i = 0; i < 5; ++i) {
      MustExec("SELECT w FROM t WHERE v = 7");
    }
    MustExec("SELECT count(*) FROM t WHERE w = 0");
  }

  std::map<std::string, int64_t> MetricsByName() {
    std::map<std::string, int64_t> out;
    for (const Row& row : MustExec("SELECT name, value FROM imp_metrics").rows) {
      out[row[0].AsText()] = row[1].AsInt();
    }
    return out;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ImaObservabilityTest, NewTablesHaveExpectedSchemas) {
  // Projection by name over every new column; fails loudly on schema
  // drift. Valid regardless of IMON_METRICS (the tables always exist).
  MustExec("SELECT name, kind, value FROM imp_metrics");
  MustExec(
      "SELECT name, count, total_nanos, max_nanos, p50_nanos, p95_nanos, "
      "p99_nanos FROM imp_stage_latency");
  MustExec(
      "SELECT seq, hash, session_id, stage, start_micros, duration_nanos "
      "FROM imp_traces");
  MustExec(
      "SELECT shard, statements, workload_dropped, references_dropped, "
      "traces_dropped, monitor_nanos FROM imp_monitor");
}

TEST_F(ImaObservabilityTest, MetricsTableShowsLiveSubsystemCounters) {
#ifdef IMON_METRICS_DISABLED
  GTEST_SKIP() << "metrics layer compiled out";
#endif
  RunSmallWorkload();
  std::map<std::string, int64_t> metrics = MetricsByName();

  // Every attached subsystem registered its names at construction.
  EXPECT_TRUE(metrics.count("buffer_pool.hits"));
  EXPECT_TRUE(metrics.count("buffer_pool.misses"));
  EXPECT_TRUE(metrics.count("lock.acquisitions"));
  EXPECT_TRUE(metrics.count("plan_cache.stripe0.hits"));

  // ... and the workload left live, non-zero telemetry behind.
  EXPECT_GT(metrics["buffer_pool.hits"], 0);
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  for (const auto& [name, value] : metrics) {
    if (name.rfind("plan_cache.", 0) == 0) {
      if (name.find(".hits") != std::string::npos) plan_hits += value;
      if (name.find(".misses") != std::string::npos) plan_misses += value;
    }
    EXPECT_GE(value, 0) << name;
  }
  EXPECT_GT(plan_hits, 0);   // repeated identical SELECT
  EXPECT_GT(plan_misses, 0); // first sight of every statement
}

TEST_F(ImaObservabilityTest, StageLatencyTableCoversEveryStage) {
#ifdef IMON_METRICS_DISABLED
  GTEST_SKIP() << "metrics layer compiled out";
#endif
  RunSmallWorkload();
  QueryResult r = MustExec(
      "SELECT name, count, max_nanos, p50_nanos, p95_nanos, p99_nanos "
      "FROM imp_stage_latency");

  std::map<std::string, std::vector<int64_t>> rows;
  for (const Row& row : r.rows) {
    rows[row[0].AsText()] = {row[1].AsInt(), row[2].AsInt(), row[3].AsInt(),
                             row[4].AsInt(), row[5].AsInt()};
  }
  const char* expected[] = {"stage.parse.nanos",    "stage.bind.nanos",
                            "stage.optimize.nanos", "stage.execute.nanos",
                            "stage.commit.nanos",   "statement.wallclock_nanos"};
  for (const char* name : expected) {
    ASSERT_TRUE(rows.count(name)) << name;
    const std::vector<int64_t>& v = rows[name];
    EXPECT_GT(v[0], 0) << name;         // count
    EXPECT_LE(v[2], v[3]) << name;      // p50 <= p95
    EXPECT_LE(v[3], v[4]) << name;      // p95 <= p99
    EXPECT_LE(v[4], v[1]) << name;      // p99 <= max
  }
  // Every committed statement is parsed and publishes a commit span;
  // DDL can bypass intermediate stages, so those counts only bound it.
  EXPECT_EQ(rows["stage.parse.nanos"][0], rows["stage.commit.nanos"][0]);
  EXPECT_EQ(rows["stage.parse.nanos"][0], rows["statement.wallclock_nanos"][0]);
  EXPECT_LE(rows["stage.execute.nanos"][0], rows["stage.parse.nanos"][0]);
}

TEST_F(ImaObservabilityTest, TracesTableExposesOrderedSpans) {
#ifdef IMON_METRICS_DISABLED
  GTEST_SKIP() << "metrics layer compiled out";
#endif
  RunSmallWorkload();
  QueryResult all = MustExec("SELECT seq, stage, duration_nanos FROM imp_traces");
  ASSERT_FALSE(all.rows.empty());

  int64_t prev_seq = 0;
  std::map<std::string, int64_t> per_stage;
  for (const Row& row : all.rows) {
    int64_t seq = row[0].AsInt();
    EXPECT_GT(seq, prev_seq);  // merged view strictly ascending
    prev_seq = seq;
    per_stage[row[1].AsText()] += 1;
    EXPECT_GE(row[2].AsInt(), 0);
  }
  for (const char* stage :
       {"parse", "bind", "optimize", "execute", "commit"}) {
    EXPECT_GT(per_stage[stage], 0) << stage;
  }
}

// `WHERE seq > mid` is pushed down into the provider on every table with
// a seq column, and must return exactly the full scan's rows past mid.
TEST_F(ImaObservabilityTest, SeqPushdownMatchesFullScanOnEveryCursoredTable) {
  const std::pair<std::string, int> cursored[] = {
      {"imp_statements", 5}, {"imp_workload", 0},   {"imp_references", 0},
      {"imp_templates", 0},  {"imp_statistics", 0}, {"imp_traces", 0}};
  std::vector<std::string> defined;
  for (const ImaTable& t : kImaTables) {
    if (t.seq_column >= 0) defined.push_back(t.name);
  }
  std::vector<std::string> expected_tables;
  for (const auto& [name, seq_column] : cursored) {
    expected_tables.push_back(name);
  }
  EXPECT_EQ(defined, expected_tables);

  RunSmallWorkload();
  for (int i = 0; i < 3; ++i) db_->SampleSystemStats();
  // Reads on an internal session commit nothing, so the full scan and
  // the pushed-down one see the same monitor state.
  std::unique_ptr<engine::Session> internal = db_->CreateInternalSession();
  for (const auto& [name, seq_column] : cursored) {
    SCOPED_TRACE(name);
    EXPECT_EQ(FindImaTable(name).seq_column, seq_column);
    auto all = db_->Execute("SELECT * FROM " + name, internal.get());
    ASSERT_TRUE(all.ok()) << all.status();
#ifdef IMON_METRICS_DISABLED
    if (name == "imp_traces") {
      EXPECT_TRUE(all->rows.empty());  // spans compile out with metrics
      continue;
    }
#endif
    ASSERT_EQ(all->columns[seq_column], "seq");
    ASSERT_GE(all->rows.size(), 2u);
    std::vector<int64_t> seqs;
    for (const Row& row : all->rows) seqs.push_back(row[seq_column].AsInt());
    std::sort(seqs.begin(), seqs.end());
    int64_t mid = seqs[(seqs.size() - 1) / 2];
    std::vector<Row> expected;
    for (const Row& row : all->rows) {
      if (row[seq_column].AsInt() > mid) expected.push_back(row);
    }
    EXPECT_FALSE(expected.empty());
    EXPECT_LT(expected.size(), all->rows.size());
    auto tail = db_->Execute(
        "SELECT * FROM " + name + " WHERE seq > " + std::to_string(mid),
        internal.get());
    ASSERT_TRUE(tail.ok()) << tail.status();
    EXPECT_EQ(tail->rows, expected);
  }
}

TEST_F(ImaObservabilityTest, MonitorTableAccountsAllCommitsPerShard) {
  RunSmallWorkload();
  QueryResult r = MustExec(
      "SELECT shard, statements, workload_dropped FROM imp_monitor");
  ASSERT_EQ(r.rows.size(), db_->monitor()->shard_count());

  int64_t committed = 0;
  for (const Row& row : r.rows) {
    EXPECT_GE(row[1].AsInt(), 0);
    EXPECT_GE(row[2].AsInt(), 0);
    committed += row[1].AsInt();
  }
  // The snapshot ran inside the SELECT's own execution, before that
  // statement committed; everything else had already published.
  EXPECT_EQ(committed, db_->monitor()->statements_executed() - 1);
}

TEST_F(ImaObservabilityTest, RegistryHammerWithSqlReader) {
#ifdef IMON_METRICS_DISABLED
  GTEST_SKIP() << "metrics layer compiled out";
#endif
  metrics::Counter* counter = db_->metrics()->GetCounter("hammer.counter");
  constexpr int kThreads = 4;
  constexpr int64_t kIncrements = 20000;

  std::atomic<int> finished{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([counter, &finished] {
      for (int64_t i = 0; i < kIncrements; ++i) counter->Add();
      finished.fetch_add(1);
    });
  }

  // SQL reader racing the writers: per-cell monotonic adds mean a scan
  // can lag but can never observe a torn or decreasing value.
  int64_t last = 0;
  do {
    QueryResult r = MustExec(
        "SELECT value FROM imp_metrics WHERE name = 'hammer.counter'");
    ASSERT_EQ(r.rows.size(), 1u);
    int64_t v = r.rows[0][0].AsInt();
    EXPECT_GE(v, last);
    EXPECT_LE(v, kThreads * kIncrements);
    last = v;
  } while (finished.load(std::memory_order_acquire) < kThreads);
  for (auto& w : writers) w.join();

  QueryResult final_scan = MustExec(
      "SELECT value FROM imp_metrics WHERE name = 'hammer.counter'");
  ASSERT_EQ(final_scan.rows.size(), 1u);
  EXPECT_EQ(final_scan.rows[0][0].AsInt(), kThreads * kIncrements);
}

// Cross-thread stress for the flight recorder: writer threads hammer
// MetricsHistory::Record and full registry Sample sweeps while SQL
// readers scan imp_metrics_history concurrently. Tier-1 reruns this
// binary under TSan; the single-lock series map must keep every scan a
// coherent snapshot (monotonic per-tick counts, min <= last <= max).
TEST_F(ImaObservabilityTest, HistoryHammerWithSqlReaders) {
#ifdef IMON_METRICS_DISABLED
  GTEST_SKIP() << "metrics layer compiled out";
#endif
  metrics::MetricsHistory* history = db_->metrics_history();
  db_->metrics()->GetCounter("hammer.ctr")->Add(7);
  db_->metrics()->GetGauge("hammer.gau")->Set(13);

  constexpr int kWriters = 3;
  constexpr int64_t kPoints = 8000;
  std::atomic<int> finished{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([history, t, &finished, this] {
      const std::string series = "hammer.series." + std::to_string(t);
      for (int64_t i = 0; i < kPoints; ++i) {
        // Advancing timestamps wrap the raw ring mid-hammer; every 1024
        // points one full registry sweep races the dedicated series.
        history->Record(series, i & 255, i * 1000000);
        if ((i & 1023) == 0) {
          history->Sample(*db_->metrics(), i * 1000000);
        }
      }
      finished.fetch_add(1);
    });
  }

  do {
    QueryResult r = MustExec(
        "SELECT name, min, max, last, count FROM imp_metrics_history");
    for (const Row& row : r.rows) {
      EXPECT_LE(row[1].AsInt(), row[2].AsInt()) << row[0].AsText();
      EXPECT_LE(row[1].AsInt(), row[3].AsInt()) << row[0].AsText();
      EXPECT_LE(row[3].AsInt(), row[2].AsInt()) << row[0].AsText();
      EXPECT_GE(row[4].AsInt(), 1) << row[0].AsText();
    }
  } while (finished.load(std::memory_order_acquire) < kWriters);
  for (auto& w : writers) w.join();

  // Quiesced: each writer's series is fully present across the rings,
  // and the registry sweeps landed counter + gauge series too.
  for (int t = 0; t < kWriters; ++t) {
    QueryResult r = MustExec(
        "SELECT sum(count) FROM imp_metrics_history WHERE name = "
        "'hammer.series." +
        std::to_string(t) + "' AND resolution = 600");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].AsInt(), kPoints);
  }
  EXPECT_GE(MustExec("SELECT count(*) FROM imp_metrics_history WHERE "
                     "name = 'hammer.ctr'")
                .rows[0][0]
                .AsInt(),
            1);
  EXPECT_GE(MustExec("SELECT count(*) FROM imp_metrics_history WHERE "
                     "name = 'hammer.gau'")
                .rows[0][0]
                .AsInt(),
            1);
}

}  // namespace
}  // namespace imon::ima
