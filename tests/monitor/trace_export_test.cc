// Stage-trace capture + Chrome trace-event export tests. The trace seq
// domain is separate from the workload/references domain, so these
// tests assert density of trace seqs without disturbing the seq
// accounting the concurrency tests rely on.

#include "monitor/trace_export.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "monitor/monitor.h"

namespace imon::monitor {
namespace {

MonitorConfig TraceConfig(size_t shards = 2) {
  MonitorConfig config;
  config.shards = shards;
  config.stats_sample_every = 0;
  return config;
}

/// One full sensor cycle; every stage runs, so a commit publishes
/// kNumStages spans.
void CommitOne(Monitor* m, int64_t session_id, int64_t i) {
  QueryTrace trace;
  m->OnQueryStart(&trace, session_id);
  m->OnParseComplete(&trace, "SELECT v FROM t WHERE v = " +
                                 std::to_string(i % 16));
  m->OnBindComplete(&trace, {1}, {{1, 0}}, {});
  m->OnOptimizeComplete(&trace, 1.0, 2.0, {7}, 500, 0);
  m->OnExecuteComplete(&trace, 1000, 0, 3.0, 1, 1);
  m->Commit(&trace);
}

TEST(MonitorTraceTest, EveryCommitPublishesOneSpanPerStage) {
#ifdef IMON_METRICS_DISABLED
  GTEST_SKIP() << "metrics layer compiled out";
#endif
  constexpr int64_t kCommits = 10;
  Monitor m(TraceConfig(), RealClock::Instance());
  for (int64_t i = 0; i < kCommits; ++i) CommitOne(&m, /*session_id=*/1, i);

  std::vector<TraceRecord> traces = m.SnapshotTraces();
  ASSERT_EQ(traces.size(), static_cast<size_t>(kCommits * kNumStages));

  // Trace seqs are dense [1, commits * stages] and the merged view is
  // strictly ascending.
  std::set<int64_t> seqs;
  std::array<int64_t, kNumStages> per_stage{};
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(traces[i - 1].seq, traces[i].seq);
    }
    EXPECT_TRUE(seqs.insert(traces[i].seq).second);
    EXPECT_GE(traces[i].duration_nanos, 0);
    EXPECT_GT(traces[i].start_micros, 0);
    EXPECT_EQ(traces[i].session_id, 1);
    EXPECT_NE(traces[i].hash, 0u);
    per_stage[static_cast<size_t>(traces[i].stage)] += 1;
  }
  EXPECT_EQ(*seqs.begin(), 1);
  EXPECT_EQ(*seqs.rbegin(), kCommits * kNumStages);
  for (int64_t count : per_stage) EXPECT_EQ(count, kCommits);
}

TEST(MonitorTraceTest, SnapshotTracesSinceFiltersBySeq) {
#ifdef IMON_METRICS_DISABLED
  GTEST_SKIP() << "metrics layer compiled out";
#endif
  Monitor m(TraceConfig(), RealClock::Instance());
  for (int64_t i = 0; i < 6; ++i) CommitOne(&m, /*session_id=*/1, i);

  std::vector<TraceRecord> all = m.SnapshotTraces();
  ASSERT_FALSE(all.empty());
  int64_t mid = all[all.size() / 2].seq;
  std::vector<TraceRecord> tail = m.SnapshotTraces(mid);
  ASSERT_EQ(tail.size(), all.size() - all.size() / 2 - 1);
  for (const TraceRecord& tr : tail) EXPECT_GT(tr.seq, mid);
  EXPECT_TRUE(m.SnapshotTraces(all.back().seq).empty());
}

/// Parse, execute and commit only (no bind or optimize stage), as a
/// statement that skips the optimizer publishes it: three spans.
void CommitPartial(Monitor* m, int64_t session_id, int64_t i) {
  QueryTrace trace;
  m->OnQueryStart(&trace, session_id);
  m->OnParseComplete(&trace, "BEGIN -- " + std::to_string(i));
  m->OnExecuteComplete(&trace, 1000, 0, 3.0, 1, 1);
  m->Commit(&trace);
}

TEST(MonitorTraceTest, TraceWindowCountsStageRowsNotStatements) {
#ifdef IMON_METRICS_DISABLED
  GTEST_SKIP() << "metrics layer compiled out";
#endif
  // Stage rows are retained with their statement's workload record: the
  // window is workload_window statements, and the drop count is in the
  // stage rows of the overwritten records, however many stages each
  // statement marked.
  MonitorConfig config = TraceConfig(/*shards=*/1);
  config.workload_window = 2;
  Monitor m(config, RealClock::Instance());
  CommitOne(&m, 1, 0);      // seqs 1-5
  CommitPartial(&m, 1, 1);  // 6-8
  CommitOne(&m, 1, 2);      // 9-13
  CommitPartial(&m, 1, 3);  // 14-16: parse, execute, commit
  CommitOne(&m, 1, 4);      // 17-21

  std::vector<TraceRecord> rows = m.SnapshotTraces();
  ASSERT_EQ(rows.size(), 8u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].seq, static_cast<int64_t>(14 + i));
  }
  EXPECT_EQ(rows[0].stage, Stage::kParse);
  EXPECT_EQ(rows[1].stage, Stage::kExecute);
  EXPECT_EQ(rows[2].stage, Stage::kCommit);
  EXPECT_EQ(rows[3].stage, Stage::kParse);
  EXPECT_EQ(rows[4].stage, Stage::kBind);
  EXPECT_EQ(rows[7].stage, Stage::kCommit);
  EXPECT_EQ(m.SnapshotWorkload().size(), 2u);
  // Three records overwritten: 5 + 3 + 5 stage rows.
  EXPECT_EQ(m.ShardStatsSnapshot()[0].traces_dropped, 13);

  // A cursor inside a record's block returns the rest of that block.
  std::vector<TraceRecord> tail = m.SnapshotTraces(18);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].seq, 19);
  EXPECT_EQ(tail[0].stage, Stage::kOptimize);
  // A since-seq below the window still returns only the visible rows.
  EXPECT_EQ(m.SnapshotTraces(10).size(), 8u);

  // Clear empties the window; the drop count is cumulative.
  m.Clear();
  CommitPartial(&m, 1, 5);
  rows = m.SnapshotTraces();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].seq, 22);
  EXPECT_EQ(m.ShardStatsSnapshot()[0].traces_dropped, 13);
}

TEST(MonitorTraceTest, ChromeTraceJsonShape) {
  std::vector<TraceRecord> traces(2);
  traces[0] = {1, 0xabcu, 3, Stage::kParse, 1000, 2500};
  traces[1] = {2, 0xabcu, 3, Stage::kExecute, 1010, 4000};

  std::string json = ChromeTraceJson(traces);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // Empty input still yields a loadable document.
  std::string empty = ChromeTraceJson({});
  EXPECT_NE(empty.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(MonitorTraceTest, LifecycleSpansGetTheirOwnTrack) {
  std::vector<TraceRecord> traces(1);
  traces[0] = {1, 0xabcu, 3, Stage::kParse, 1000, 2500};

  LifecycleSpan span;
  span.name = "CREATE INDEX idx_t_b [KEPT]";
  span.category = "tuner";
  span.track_name = "tuner";
  span.track = 7;
  span.start_micros = 5000;
  span.end_micros = 9000;
  span.int_args = {{"decision_id", 42}, {"action_id", 7}};
  span.text_args = {{"rule", "R4"}, {"note", "a \"quoted\"\nnote"}};

  std::string json = ChromeTraceJson(traces, {span});
  // Statement spans keep pid 0; lifecycle spans live on pid 1 with a
  // process_name metadata event naming the track.
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"tuner\""), std::string::npos);
  EXPECT_NE(json.find("\"decision_id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"R4\""), std::string::npos);
  // Text args are JSON-escaped, never raw.
  EXPECT_NE(json.find("a \\\"quoted\\\"\\nnote"), std::string::npos);
  EXPECT_EQ(json.find("\nnote"), std::string::npos);

  // No spans -> byte-identical to the two-arg overload (no stray
  // metadata events).
  EXPECT_EQ(ChromeTraceJson(traces, {}), ChromeTraceJson(traces));
}

TEST(MonitorTraceTest, ExportChromeTraceWritesFile) {
  Monitor m(TraceConfig(), RealClock::Instance());
  for (int64_t i = 0; i < 3; ++i) CommitOne(&m, /*session_id=*/1, i);

  const std::string path =
      ::testing::TempDir() + "/imon_trace_export_test.json";
  ASSERT_TRUE(ExportChromeTrace(m, path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string contents = buffer.str();
  EXPECT_NE(contents.find("\"traceEvents\":["), std::string::npos);
#ifndef IMON_METRICS_DISABLED
  EXPECT_NE(contents.find("\"name\":\"parse\""), std::string::npos);
#endif
  std::remove(path.c_str());
}

TEST(MonitorTraceTest, ExportChromeTraceRejectsUnwritablePath) {
  Monitor m(TraceConfig(), RealClock::Instance());
  EXPECT_FALSE(ExportChromeTrace(m, "/nonexistent-dir/trace.json").ok());
}

TEST(MonitorTraceTest, ClearDropsBufferedTraces) {
#ifdef IMON_METRICS_DISABLED
  GTEST_SKIP() << "metrics layer compiled out";
#endif
  Monitor m(TraceConfig(), RealClock::Instance());
  for (int64_t i = 0; i < 3; ++i) CommitOne(&m, /*session_id=*/1, i);
  ASSERT_FALSE(m.SnapshotTraces().empty());
  m.Clear();
  EXPECT_TRUE(m.SnapshotTraces().empty());
}

}  // namespace
}  // namespace imon::monitor
