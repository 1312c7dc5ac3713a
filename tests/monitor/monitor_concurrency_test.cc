// Concurrency stress + sharding-equivalence tests for the sharded
// monitor (DESIGN.md "Concurrency model").
//
// - Stress: N committer threads on distinct sessions publish in
//   parallel; the merged relational view must account for every
//   allocated sequence number exactly once.
// - Reader: incremental Since-polls racing the committers must always
//   advance (a poll never returns a seq at or below its cursor, and the
//   merged batches are strictly ascending).
// - Regression: for a single-threaded workload, a sharded monitor must
//   produce record sequences identical to a 1-shard (pre-sharding)
//   monitor, both in full snapshots and through chunked daemon-style
//   Since-polling, at the monitor API and through a whole Database.

#include "monitor/monitor.h"

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "gtest/gtest.h"
#include "sql/normalizer.h"

namespace imon::monitor {
namespace {

MonitorConfig BigWindows(size_t shards) {
  MonitorConfig config;
  config.shards = shards;
  config.statement_window = 100000;
  config.workload_window = 100000;
  config.stats_sample_every = 0;
  return config;
}

/// One full sensor cycle: 1 table ref + 1 attribute ref + 1 used index
/// -> a block of 4 seqs (workload record + 3 references).
void CommitOne(Monitor* m, int64_t session_id, int64_t i) {
  QueryTrace trace;
  m->OnQueryStart(&trace, session_id);
  m->OnParseComplete(&trace, "SELECT v FROM t WHERE v = " +
                                 std::to_string(i % 128));
  m->OnBindComplete(&trace, {1}, {{1, 0}}, {});
  m->OnOptimizeComplete(&trace, 1.0, 2.0, {7}, 500, 0);
  m->OnExecuteComplete(&trace, 1000, 0, 3.0, 1, 1);
  m->Commit(&trace);
}
constexpr int64_t kSeqsPerCommit = 4;

TEST(MonitorConcurrencyTest, NoLostOrDuplicatedSeqsUnderContention) {
  constexpr int kThreads = 8;
  constexpr int64_t kCommits = 2000;
  Monitor m(BigWindows(8), RealClock::Instance());
  ASSERT_EQ(m.shard_count(), 8u);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&m, t] {
      for (int64_t i = 0; i < kCommits; ++i) CommitOne(&m, t + 1, i);
    });
  }
  for (auto& w : workers) w.join();

  constexpr int64_t kTotal = kThreads * kCommits;
  EXPECT_EQ(m.statements_executed(), kTotal);
  EXPECT_EQ(m.counters().statements_dropped, 0);

  // Every seq in [1, kTotal * kSeqsPerCommit] appears exactly once across
  // workload + reference records, and the merged views are ascending.
  std::vector<WorkloadRecord> workload = m.SnapshotWorkload();
  std::vector<ReferenceRecord> references = m.SnapshotReferences();
  ASSERT_EQ(workload.size(), static_cast<size_t>(kTotal));
  ASSERT_EQ(references.size(),
            static_cast<size_t>(kTotal * (kSeqsPerCommit - 1)));

  std::set<int64_t> seen;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(workload[i - 1].seq, workload[i].seq);
    }
    EXPECT_TRUE(seen.insert(workload[i].seq).second)
        << "duplicate seq " << workload[i].seq;
  }
  for (size_t i = 0; i < references.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(references[i - 1].seq, references[i].seq);
    }
    EXPECT_TRUE(seen.insert(references[i].seq).second)
        << "duplicate seq " << references[i].seq;
  }
  ASSERT_EQ(seen.size(), static_cast<size_t>(kTotal * kSeqsPerCommit));
  EXPECT_EQ(*seen.begin(), 1);
  EXPECT_EQ(*seen.rbegin(), kTotal * kSeqsPerCommit);

  // Frequencies merged across shards.
  EXPECT_EQ(m.TableFrequencies().at(1), kTotal);
  EXPECT_EQ(m.AttributeFrequencies().at({1, 0}), kTotal);
  EXPECT_EQ(m.IndexFrequencies().at(7), kTotal);
}

// Sessions sharing one shard race to create the same templates. A commit
// that carries a fingerprint builds a new template's text outside the
// shard lock and looks again after retaking it, so each template must be
// created once, count every execution and keep the text of its fingerprint
// -- also when a small window churns templates out and back in.
TEST(MonitorConcurrencyTest, TemplateCreationRacesOnOneShard) {
  constexpr int kThreads = 6;
  constexpr int64_t kCommits = 600;
  constexpr int kTemplates = 48;
  std::vector<std::string> texts;
  std::vector<uint64_t> fingerprints;
  for (int k = 0; k < kTemplates; ++k) {
    texts.push_back("SELECT c" + std::to_string(k) + " FROM t WHERE v = " +
                    std::to_string(k));
    fingerprints.push_back(sql::NormalizeStatement(texts.back()).fingerprint);
  }
  for (size_t window : {size_t{4096}, size_t{8}}) {
    MonitorConfig config = BigWindows(1);
    config.template_window = window;
    Monitor m(config, RealClock::Instance());
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int64_t i = 0; i < kCommits; ++i) {
          size_t k = static_cast<size_t>((i * 7 + t) % kTemplates);
          QueryTrace trace;
          m.OnQueryStart(&trace, t + 1);
          m.OnParseComplete(&trace, texts[k], HashStatement(texts[k]),
                            fingerprints[k]);
          m.OnExecuteComplete(&trace, 1000, 0, 1.0, 1, 1);
          m.Commit(&trace);
        }
      });
    }
    for (auto& w : workers) w.join();

    auto templates = m.SnapshotTemplates();
    ASSERT_LE(templates.size(), std::min<size_t>(window, kTemplates));
    int64_t executions = 0;
    std::set<uint64_t> seen;
    for (const TemplateRecord& tmpl : templates) {
      EXPECT_TRUE(seen.insert(tmpl.fingerprint).second);
      auto it = std::find(fingerprints.begin(), fingerprints.end(),
                          tmpl.fingerprint);
      ASSERT_NE(it, fingerprints.end());
      size_t k = static_cast<size_t>(it - fingerprints.begin());
      EXPECT_EQ(tmpl.template_text,
                sql::NormalizeStatement(texts[k]).template_text);
      executions += tmpl.executions;
    }
    if (window >= kTemplates) {
      EXPECT_EQ(templates.size(), static_cast<size_t>(kTemplates));
      EXPECT_EQ(executions, kThreads * kCommits);
    } else {
      EXPECT_LE(executions, kThreads * kCommits);
    }
  }
}

TEST(MonitorConcurrencyTest, ShardStatsAccountForCommitsAndDrops) {
  // A tiny workload window forces ring wrap-around; the per-shard
  // saturation counters (imp_monitor rows) must account for exactly what
  // the merged snapshots lost. References and stage traces are retained
  // with their statement's record, so the window is in statements for
  // all three, and their drops are the rows of the overwritten records.
  MonitorConfig config = BigWindows(4);
  config.workload_window = 8;

  constexpr int kThreads = 4;
  constexpr int64_t kCommits = 500;
  Monitor m(config, RealClock::Instance());

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&m, t] {
      for (int64_t i = 0; i < kCommits; ++i) CommitOne(&m, t + 1, i);
    });
  }
  for (auto& w : workers) w.join();

  constexpr int64_t kTotal = kThreads * kCommits;
  std::vector<ShardStats> stats = m.ShardStatsSnapshot();
  ASSERT_EQ(stats.size(), m.shard_count());

  int64_t committed = 0;
  int64_t workload_dropped = 0;
  int64_t references_dropped = 0;
  for (const ShardStats& s : stats) {
    EXPECT_GE(s.shard, 0);
    EXPECT_GE(s.monitor_nanos, 0);
    committed += s.statements_committed;
    workload_dropped += s.workload_dropped;
    references_dropped += s.references_dropped;
  }
  EXPECT_EQ(committed, kTotal);
  // Every commit the retained windows cannot hold is accounted as a
  // drop — no record vanishes without being counted.
  EXPECT_GT(workload_dropped, 0);
  const int64_t retained = static_cast<int64_t>(m.SnapshotWorkload().size());
  int64_t window_total = 0;
  for (const ShardStats& s : stats) {
    window_total += std::min<int64_t>(s.statements_committed, 8);
  }
  EXPECT_EQ(retained, window_total);
  EXPECT_EQ(workload_dropped, kTotal - retained);
  EXPECT_EQ(static_cast<int64_t>(m.SnapshotReferences().size()),
            retained * (kSeqsPerCommit - 1));
  EXPECT_EQ(references_dropped, workload_dropped * (kSeqsPerCommit - 1));
  // The aggregate view agrees with the per-shard accounting.
  EXPECT_EQ(m.counters().statements_dropped, workload_dropped);

  int64_t traces_dropped = 0;
  for (const ShardStats& s : stats) traces_dropped += s.traces_dropped;
#ifndef IMON_METRICS_DISABLED
  // Five stage rows per statement, retained and dropped alike.
  EXPECT_EQ(static_cast<int64_t>(m.SnapshotTraces().size()),
            retained * kNumStages);
  EXPECT_EQ(traces_dropped, workload_dropped * kNumStages);
#else
  EXPECT_TRUE(m.SnapshotTraces().empty());
  EXPECT_EQ(traces_dropped, 0);
#endif

  // Clear() empties the windows but never resets the saturation
  // accounting ("since construction", like statements_executed).
  m.Clear();
  std::vector<ShardStats> cleared = m.ShardStatsSnapshot();
  int64_t dropped_after_clear = 0;
  for (const ShardStats& s : cleared) dropped_after_clear += s.workload_dropped;
  EXPECT_EQ(dropped_after_clear, workload_dropped);
}

TEST(MonitorConcurrencyTest, SincePollingNeverGoesBackwardOrLosesRecords) {
  constexpr int kThreads = 4;
  constexpr int64_t kCommits = 1500;
  Monitor m(BigWindows(4), RealClock::Instance());

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&m, t] {
      for (int64_t i = 0; i < kCommits; ++i) CommitOne(&m, t + 1, i);
    });
  }

  // Daemon-style reader racing the committers.
  int64_t cursor = 0;
  size_t polled = 0;
  while (polled < static_cast<size_t>(kThreads * kCommits)) {
    std::vector<WorkloadRecord> batch = m.SnapshotWorkload(cursor);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_GT(batch[i].seq, cursor);
      cursor = batch[i].seq;
    }
    polled += batch.size();
  }
  for (auto& w : workers) w.join();

  // Nothing was double-counted: the cursor walked exactly the committed
  // workload records.
  EXPECT_EQ(polled, static_cast<size_t>(kThreads * kCommits));
  EXPECT_TRUE(m.SnapshotWorkload(cursor).empty());
}

/// The comparable identity of a record sequence (timings differ run to
/// run; order and identity must not).
std::vector<std::pair<int64_t, uint64_t>> Ids(
    const std::vector<WorkloadRecord>& records) {
  std::vector<std::pair<int64_t, uint64_t>> out;
  for (const auto& r : records) out.emplace_back(r.seq, r.hash);
  return out;
}

std::vector<std::tuple<int64_t, uint64_t, int, int64_t>> Ids(
    const std::vector<ReferenceRecord>& records) {
  std::vector<std::tuple<int64_t, uint64_t, int, int64_t>> out;
  for (const auto& r : records) {
    out.emplace_back(r.seq, r.hash, static_cast<int>(r.type), r.object_id);
  }
  return out;
}

TEST(MonitorConcurrencyTest, SingleThreadedSequenceIdenticalAcrossShardCounts) {
  Monitor flat(BigWindows(1), RealClock::Instance());
  Monitor wide(BigWindows(8), RealClock::Instance());
  ASSERT_EQ(flat.shard_count(), 1u);
  ASSERT_EQ(wide.shard_count(), 8u);

  // Identical single-session workload into both, with chunked
  // daemon-style polling interleaved mid-stream.
  int64_t flat_cursor = 0;
  int64_t wide_cursor = 0;
  for (int chunk = 0; chunk < 10; ++chunk) {
    for (int64_t i = 0; i < 37; ++i) {
      CommitOne(&flat, 0, chunk * 37 + i);
      CommitOne(&wide, 0, chunk * 37 + i);
    }
    std::vector<WorkloadRecord> flat_batch =
        flat.SnapshotWorkload(flat_cursor);
    std::vector<WorkloadRecord> wide_batch =
        wide.SnapshotWorkload(wide_cursor);
    ASSERT_EQ(Ids(flat_batch), Ids(wide_batch)) << "chunk " << chunk;
    ASSERT_FALSE(flat_batch.empty());
    flat_cursor = flat_batch.back().seq;
    wide_cursor = wide_batch.back().seq;

    ASSERT_EQ(Ids(flat.SnapshotReferences(0)),
              Ids(wide.SnapshotReferences(0)))
        << "chunk " << chunk;
  }

  EXPECT_EQ(Ids(flat.SnapshotWorkload()), Ids(wide.SnapshotWorkload()));
  EXPECT_EQ(Ids(flat.SnapshotReferences()), Ids(wide.SnapshotReferences()));
  EXPECT_EQ(flat.TableFrequencies(), wide.TableFrequencies());
  EXPECT_EQ(flat.AttributeFrequencies(), wide.AttributeFrequencies());
  EXPECT_EQ(flat.IndexFrequencies(), wide.IndexFrequencies());

  auto flat_statements = flat.SnapshotStatements();
  auto wide_statements = wide.SnapshotStatements();
  ASSERT_EQ(flat_statements.size(), wide_statements.size());
  for (size_t i = 0; i < flat_statements.size(); ++i) {
    EXPECT_EQ(flat_statements[i].hash, wide_statements[i].hash);
    EXPECT_EQ(flat_statements[i].frequency, wide_statements[i].frequency);
  }
}

TEST(MonitorConcurrencyTest, DatabaseSequenceIdenticalAcrossShardCounts) {
  auto run = [](size_t shards) {
    engine::DatabaseOptions options;
    options.monitor.shards = shards;
    options.monitor.stats_sample_every = 0;
    engine::Database db(options);
    auto exec = [&db](const std::string& sql) {
      ASSERT_TRUE(db.Execute(sql).ok()) << sql;
    };
    exec("CREATE TABLE t (v INT, w INT)");
    for (int i = 0; i < 20; ++i) {
      exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 0)");
    }
    exec("CREATE INDEX t_v ON t (v)");
    for (int i = 0; i < 20; ++i) {
      exec("SELECT w FROM t WHERE v = " + std::to_string(i % 7));
    }
    exec("UPDATE t SET w = 1 WHERE v = 3");
    // The engine is single-threaded here, so the monitor's relational
    // view must be byte-for-byte ordered like the 1-shard build.
    std::vector<std::pair<int64_t, uint64_t>> out;
    for (const auto& r : db.monitor()->SnapshotWorkload()) {
      out.emplace_back(r.seq, r.hash);
    }
    for (const auto& r : db.monitor()->SnapshotReferences()) {
      out.emplace_back(r.seq, static_cast<uint64_t>(r.object_id));
    }
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

}  // namespace
}  // namespace imon::monitor
