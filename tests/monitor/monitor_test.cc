#include "monitor/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <thread>
#include <unordered_map>

#include "sql/normalizer.h"

namespace imon::monitor {
namespace {

MonitorConfig SmallConfig() {
  MonitorConfig c;
  c.statement_window = 4;
  c.workload_window = 8;
  c.statistics_window = 8;
  c.stats_sample_every = 0;
  return c;
}

QueryTrace RunStatement(Monitor* m, const std::string& text,
                        double est = 1.0, double actual = 2.0) {
  QueryTrace trace;
  m->OnQueryStart(&trace);
  m->OnParseComplete(&trace, text);
  m->OnBindComplete(&trace, {1}, {{1, 0}}, {7});
  m->OnOptimizeComplete(&trace, est, est, {7}, 100, 0);
  m->OnExecuteComplete(&trace, 1000, 2, actual, 10, 3);
  m->Commit(&trace);
  return trace;
}

TEST(MonitorTest, DisabledSensorsLeaveNoTrace) {
  MonitorConfig config = SmallConfig();
  config.enabled = false;
  Monitor m(config, RealClock::Instance());
  QueryTrace trace = RunStatement(&m, "SELECT 1");
  EXPECT_FALSE(trace.active);
  EXPECT_EQ(trace.monitor_nanos, 0);
  EXPECT_TRUE(m.SnapshotStatements().empty());
  EXPECT_TRUE(m.SnapshotWorkload().empty());
  EXPECT_EQ(m.statements_executed(), 0);
}

TEST(MonitorTest, ResetTraceTakesDefaultsAndKeepsCapacity) {
  Monitor m(SmallConfig(), RealClock::Instance());
  QueryTrace trace =
      RunStatement(&m, "SELECT a FROM t WHERE a = 'a long enough literal'");
  const size_t text_capacity = trace.text.capacity();
  ASSERT_FALSE(trace.used_indexes.empty());
  trace.Reset();

  const QueryTrace fresh;
  EXPECT_EQ(trace.active, fresh.active);
  EXPECT_EQ(trace.session_id, fresh.session_id);
  EXPECT_EQ(trace.wall_start_micros, fresh.wall_start_micros);
  EXPECT_EQ(trace.mono_start_nanos, fresh.mono_start_nanos);
  EXPECT_EQ(trace.hash, fresh.hash);
  EXPECT_EQ(trace.monitor_nanos, fresh.monitor_nanos);
  EXPECT_EQ(trace.estimated_cpu, fresh.estimated_cpu);
  EXPECT_EQ(trace.actual_cost, fresh.actual_cost);
  EXPECT_EQ(trace.rows_output, fresh.rows_output);
  EXPECT_EQ(trace.last_mark_nanos, fresh.last_mark_nanos);
  for (const StageSpan& span : trace.stages) EXPECT_EQ(span.start_nanos, 0);
  EXPECT_TRUE(trace.text.empty());
  EXPECT_TRUE(trace.ref_tables.empty());
  EXPECT_TRUE(trace.ref_attributes.empty());
  EXPECT_TRUE(trace.ref_indexes.empty());
  EXPECT_TRUE(trace.used_indexes.empty());
  // The buffers survive for the next statement.
  EXPECT_EQ(trace.text.capacity(), text_capacity);
  EXPECT_GE(trace.ref_tables.capacity(), 1u);
  EXPECT_GE(trace.ref_attributes.capacity(), 1u);
  EXPECT_GE(trace.ref_indexes.capacity(), 1u);
  EXPECT_GE(trace.used_indexes.capacity(), 1u);
}

TEST(MonitorTest, StatementFrequencyAccumulates) {
  Monitor m(SmallConfig(), RealClock::Instance());
  RunStatement(&m, "SELECT a");
  RunStatement(&m, "SELECT a");
  RunStatement(&m, "SELECT b");
  auto statements = m.SnapshotStatements();
  ASSERT_EQ(statements.size(), 2u);
  int64_t freq_a = 0;
  for (const auto& s : statements) {
    if (s.text == "SELECT a") freq_a = s.frequency;
  }
  EXPECT_EQ(freq_a, 2);
  EXPECT_EQ(m.statements_executed(), 3);
}

TEST(MonitorTest, StatementWindowEvictsOldest) {
  Monitor m(SmallConfig(), RealClock::Instance());  // window = 4
  for (int i = 0; i < 6; ++i) {
    RunStatement(&m, "stmt " + std::to_string(i));
  }
  auto statements = m.SnapshotStatements();
  ASSERT_EQ(statements.size(), 4u);
  // Oldest two evicted.
  for (const auto& s : statements) {
    EXPECT_NE(s.text, "stmt 0");
    EXPECT_NE(s.text, "stmt 1");
  }
}

TEST(MonitorTest, WorkloadRecordCarriesCosts) {
  Monitor m(SmallConfig(), RealClock::Instance());
  RunStatement(&m, "SELECT x", /*est=*/5.0, /*actual=*/9.0);
  auto workload = m.SnapshotWorkload();
  ASSERT_EQ(workload.size(), 1u);
  const WorkloadRecord& r = workload[0];
  EXPECT_EQ(r.hash, HashStatement("SELECT x"));
  EXPECT_DOUBLE_EQ(r.estimated_cpu + r.estimated_io, 10.0);
  EXPECT_DOUBLE_EQ(r.actual_cost, 9.0);
  EXPECT_EQ(r.rows_examined, 10);
  EXPECT_EQ(r.rows_output, 3);
  EXPECT_EQ(r.execute_disk_io, 2);
  EXPECT_GT(r.wallclock_nanos, 0);
  EXPECT_GT(r.monitor_nanos, 0);
  EXPECT_EQ(r.used_indexes, std::vector<ObjectId>{7});
}

TEST(MonitorTest, WorkloadRingWrapsAndCountsDrops) {
  Monitor m(SmallConfig(), RealClock::Instance());  // workload window 8
  for (int i = 0; i < 12; ++i) {
    RunStatement(&m, "q" + std::to_string(i));
  }
  auto workload = m.SnapshotWorkload();
  EXPECT_EQ(workload.size(), 8u);
  EXPECT_EQ(m.counters().statements_dropped, 4);
  // Records are in arrival order with ascending seq.
  for (size_t i = 1; i < workload.size(); ++i) {
    EXPECT_GT(workload[i].seq, workload[i - 1].seq);
  }
}

TEST(MonitorTest, ReferencesRecorded) {
  Monitor m(SmallConfig(), RealClock::Instance());
  RunStatement(&m, "SELECT a");
  auto refs = m.SnapshotReferences();
  // 1 table + 1 attribute + 1 available index + 1 used index.
  ASSERT_EQ(refs.size(), 4u);
  EXPECT_EQ(refs[0].type, RefType::kTable);
  EXPECT_EQ(refs[1].type, RefType::kAttribute);
  EXPECT_EQ(refs[1].ordinal, 0);
  EXPECT_EQ(refs[2].type, RefType::kIndex);
  EXPECT_EQ(refs[3].type, RefType::kUsedIndex);
  EXPECT_EQ(m.TableFrequencies()[1], 1);
  EXPECT_EQ((m.AttributeFrequencies()[{1, 0}]), 1);
  EXPECT_EQ(m.IndexFrequencies()[7], 1);
}

TEST(MonitorTest, IncrementalSnapshotsReturnOnlyNewTail) {
  Monitor m(SmallConfig(), RealClock::Instance());
  RunStatement(&m, "q1");
  RunStatement(&m, "q2");
  int64_t last_seq = m.SnapshotWorkload().back().seq;
  EXPECT_TRUE(m.SnapshotWorkload(last_seq).empty());
  RunStatement(&m, "q3");
  auto fresh = m.SnapshotWorkload(last_seq);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].hash, HashStatement("q3"));
  // Agreement with the full snapshot.
  auto full = m.SnapshotWorkload();
  EXPECT_EQ(full.back().seq, fresh[0].seq);
}

TEST(MonitorTest, SystemStatsSampling) {
  Monitor m(SmallConfig(), RealClock::Instance());
  SystemSnapshot snapshot;
  snapshot.current_sessions = 3;
  snapshot.cache_logical_reads = 100;
  snapshot.cache_physical_reads = 25;
  m.RecordSystemStats(snapshot);
  auto stats = m.SnapshotStatistics();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].current_sessions, 3);
  EXPECT_DOUBLE_EQ(stats[0].cache_hit_ratio, 0.75);
}

TEST(MonitorTest, ShouldSampleStatsEveryN) {
  MonitorConfig config = SmallConfig();
  config.stats_sample_every = 3;
  Monitor m(config, RealClock::Instance());
  int samples = 0;
  for (int i = 0; i < 9; ++i) {
    RunStatement(&m, "q" + std::to_string(i % 2));
    if (m.ShouldSampleStats()) ++samples;
  }
  EXPECT_EQ(samples, 3);
}

TEST(MonitorTest, SelfTimeAccounted) {
  Monitor m(SmallConfig(), RealClock::Instance());
  QueryTrace trace = RunStatement(&m, "SELECT 1");
  EXPECT_GT(trace.monitor_nanos, 0);
  EXPECT_EQ(m.counters().total_monitor_nanos > 0, true);
  auto workload = m.SnapshotWorkload();
  EXPECT_EQ(workload[0].monitor_nanos, trace.monitor_nanos);
}

TEST(MonitorTest, MaxSessionsTracksHighWater) {
  Monitor m(SmallConfig(), RealClock::Instance());
  m.NoteSessionCount(2);
  m.NoteSessionCount(7);
  m.NoteSessionCount(4);
  EXPECT_EQ(m.max_sessions_seen(), 7);
}

TEST(MonitorTest, ClearResetsEverything) {
  Monitor m(SmallConfig(), RealClock::Instance());
  RunStatement(&m, "q");
  m.RecordSystemStats(SystemSnapshot{});
  m.Clear();
  EXPECT_TRUE(m.SnapshotStatements().empty());
  EXPECT_TRUE(m.SnapshotWorkload().empty());
  EXPECT_TRUE(m.SnapshotReferences().empty());
  EXPECT_TRUE(m.SnapshotStatistics().empty());
  EXPECT_TRUE(m.TableFrequencies().empty());
}

TEST(MonitorTest, ConcurrentCommitsAreSafe) {
  MonitorConfig config;
  config.stats_sample_every = 0;
  Monitor m(config, RealClock::Instance());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RunStatement(&m, "thread " + std::to_string(t) + " stmt " +
                             std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.statements_executed(), kThreads * kPerThread);
  auto statements = m.SnapshotStatements();
  EXPECT_EQ(statements.size(), config.statement_window);
}

TEST(MonitorTest, TemplatesAggregateAcrossLiterals) {
  Monitor m(SmallConfig(), RealClock::Instance());
  RunStatement(&m, "SELECT a FROM t WHERE id = 1", 1.0, 2.0);
  RunStatement(&m, "SELECT a FROM t WHERE id = 2", 1.0, 4.0);
  RunStatement(&m, "SELECT a FROM t WHERE id = 3", 1.0, 6.0);
  RunStatement(&m, "SELECT b FROM t", 1.0, 1.0);
  auto templates = m.SnapshotTemplates();
  ASSERT_EQ(templates.size(), 2u);
  const TemplateRecord* point = nullptr;
  for (const auto& t : templates) {
    if (t.template_text == "select a from t where id = ?") point = &t;
  }
  ASSERT_NE(point, nullptr);
  EXPECT_EQ(point->executions, 3);
  EXPECT_EQ(point->sampled_count, 3);
  EXPECT_DOUBLE_EQ(point->total_actual, 12.0);
  EXPECT_DOUBLE_EQ(point->total_estimated, 6.0);
  EXPECT_EQ(point->actual_cost_milli.count, 3);
  // Representative = earliest execution (ties broken by raw hash).
  EXPECT_EQ(point->sample_text, "SELECT a FROM t WHERE id = 1");
  EXPECT_EQ(point->ref_tables, std::vector<ObjectId>{1});
  EXPECT_GT(point->seq, 0);
}

TEST(MonitorTest, SuppliedFingerprintPublishedAsGiven) {
  Monitor m(SmallConfig(), RealClock::Instance());
  // Deliberately not what normalization would give: the monitor must take
  // the front end's hash and fingerprint as they are.
  constexpr uint64_t kHash = 77;
  constexpr uint64_t kFingerprint = 0xf1f1;
  for (const std::string text : {"SELECT a FROM t WHERE id = 1",
                                 "SELECT a FROM t WHERE id = 2",
                                 "SELECT other FROM elsewhere"}) {
    QueryTrace trace;
    m.OnQueryStart(&trace);
    m.OnParseComplete(&trace, text, kHash, kFingerprint);
    m.OnExecuteComplete(&trace, 1000, 0, 1.0, 1, 1);
    m.Commit(&trace);
  }
  auto templates = m.SnapshotTemplates();
  ASSERT_EQ(templates.size(), 1u);
  EXPECT_EQ(templates[0].fingerprint, kFingerprint);
  EXPECT_EQ(templates[0].executions, 3);
  // Template text is built once, from the statement that created it.
  EXPECT_EQ(templates[0].template_text, "select a from t where id = ?");
  auto statements = m.SnapshotStatements();
  ASSERT_EQ(statements.size(), 1u);
  EXPECT_EQ(statements[0].hash, kHash);
  EXPECT_EQ(statements[0].frequency, 3);

  // The text-only sensor normalizes the text itself. Text that does not
  // tokenize is its own template: the fingerprint mixes the raw text's
  // hash, and the template text is the raw text.
  const std::string untokenizable = "SELECT 'unterminated";
  RunStatement(&m, "SELECT a FROM t WHERE id = 3");
  RunStatement(&m, untokenizable);
  templates = m.SnapshotTemplates();
  ASSERT_EQ(templates.size(), 3u);
  auto find = [&](uint64_t fingerprint) -> const TemplateRecord* {
    for (const TemplateRecord& t : templates) {
      if (t.fingerprint == fingerprint) return &t;
    }
    return nullptr;
  };
  const TemplateRecord* normalized = find(
      sql::NormalizeStatement("SELECT a FROM t WHERE id = 3").fingerprint);
  ASSERT_NE(normalized, nullptr);
  EXPECT_EQ(normalized->template_text, "select a from t where id = ?");
  const TemplateRecord* raw = find(Mix64(HashStatement(untokenizable)));
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->template_text, untokenizable);
  EXPECT_EQ(raw->sample_text, untokenizable);
  EXPECT_EQ(raw->sample_hash, HashStatement(untokenizable));
}

TEST(MonitorTest, TemplateWindowEvictsOldest) {
  MonitorConfig config = SmallConfig();
  config.template_window = 2;
  Monitor m(config, RealClock::Instance());
  RunStatement(&m, "SELECT a FROM t1");
  RunStatement(&m, "SELECT a FROM t2");
  RunStatement(&m, "SELECT a FROM t3");
  auto templates = m.SnapshotTemplates();
  ASSERT_EQ(templates.size(), 2u);
  for (const auto& t : templates) {
    EXPECT_NE(t.template_text, "select a from t1");
  }
}

TEST(MonitorTest, TemplateEvictionFoldsReferenceFrequencies) {
  MonitorConfig config = SmallConfig();
  config.template_window = 2;
  Monitor m(config, RealClock::Instance());
  // No raw records are kept, so each template's reference set has the
  // template as its only holder: evicting the template retires the set.
  m.SetWorkloadSampleRate(0);
  auto run = [&m](ObjectId table, int times) {
    for (int i = 0; i < times; ++i) {
      QueryTrace trace;
      m.OnQueryStart(&trace);
      m.OnParseComplete(&trace, "SELECT a FROM t" + std::to_string(table));
      m.OnBindComplete(&trace, {table}, {{table, 0}}, {});
      m.OnOptimizeComplete(&trace, 1.0, 1.0, {}, 100, 0);
      m.OnExecuteComplete(&trace, 1000, 2, 2.0, 10, 3);
      m.Commit(&trace);
    }
  };
  run(1, 3);
  run(2, 2);
  run(3, 1);  // evicts t1's template
  ASSERT_EQ(m.SnapshotTemplates().size(), 2u);
  EXPECT_EQ(m.TableFrequencies(),
            (std::map<ObjectId, int64_t>{{1, 3}, {2, 2}, {3, 1}}));
  EXPECT_EQ((m.AttributeFrequencies()[{1, 0}]), 3);

  run(1, 4);  // t1 comes back as a new template and evicts t2's
  EXPECT_EQ(m.TableFrequencies(),
            (std::map<ObjectId, int64_t>{{1, 7}, {2, 2}, {3, 1}}));
  for (const auto& t : m.SnapshotTemplates()) {
    EXPECT_NE(t.template_text, "select a from t2");
    if (t.template_text == "select a from t1") {
      EXPECT_EQ(t.executions, 4);
    }
  }
}

TEST(MonitorTest, SamplingKeepsTemplateCountsExact) {
  MonitorConfig config = SmallConfig();
  config.workload_window = 256;
  Monitor m(config, RealClock::Instance());
  m.SetWorkloadSampleRate(250'000);  // keep ~25% of raw records
  for (int i = 0; i < 100; ++i) {
    RunStatement(&m, "SELECT a FROM t WHERE id = " + std::to_string(i));
  }
  auto templates = m.SnapshotTemplates();
  ASSERT_EQ(templates.size(), 1u);
  EXPECT_EQ(templates[0].executions, 100);
  EXPECT_LT(templates[0].sampled_count, 100);
  EXPECT_EQ(static_cast<int64_t>(m.SnapshotWorkload().size()),
            templates[0].sampled_count);
  // Drop accounting reconciles exactly with the template's view.
  int64_t sampled_out = 0;
  for (const auto& s : m.ShardStatsSnapshot()) {
    sampled_out += s.workload_sampled_out;
  }
  EXPECT_EQ(sampled_out, 100 - templates[0].sampled_count);
  // Raw seq domain stays dense: sampled-out commits allocate no seqs, so
  // the max seq equals kept commits x (1 workload + 4 reference) seqs.
  auto workload = m.SnapshotWorkload();
  auto refs = m.SnapshotReferences();
  int64_t max_seq = 0;
  for (const auto& r : workload) max_seq = std::max(max_seq, r.seq);
  for (const auto& r : refs) max_seq = std::max(max_seq, r.seq);
  EXPECT_EQ(max_seq, templates[0].sampled_count * 5);
}

TEST(MonitorTest, SamplingIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    MonitorConfig config = SmallConfig();
    config.workload_window = 256;
    config.sample_seed = seed;
    Monitor m(config, RealClock::Instance());
    m.SetWorkloadSampleRate(500'000);
    std::vector<uint64_t> kept;
    for (int i = 0; i < 64; ++i) {
      RunStatement(&m, "SELECT a FROM t WHERE id = " + std::to_string(i));
    }
    for (const auto& r : m.SnapshotWorkload()) kept.push_back(r.hash);
    return kept;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(MonitorTest, TiedFirstSeenStatementsOrderByHash) {
  SimulatedClock clock(5000);
  Monitor m(SmallConfig(), &clock);
  const std::vector<std::string> texts = {"SELECT b", "SELECT c", "SELECT a"};
  for (const std::string& text : texts) RunStatement(&m, text);
  std::vector<uint64_t> expected;
  for (const std::string& text : texts) expected.push_back(HashStatement(text));
  std::sort(expected.begin(), expected.end());
  std::vector<uint64_t> got;
  for (const auto& s : m.SnapshotStatements()) {
    EXPECT_EQ(s.first_seen_micros, 5000);
    got.push_back(s.hash);
  }
  EXPECT_EQ(got, expected);
}

TEST(MonitorTest, ReferencesSinceCursorInsideARecordsBlock) {
  Monitor m(SmallConfig(), RealClock::Instance());
  RunStatement(&m, "q1");  // workload seq 1, references 2-5
  RunStatement(&m, "q2");  // workload seq 6, references 7-10
  std::vector<ReferenceRecord> tail = m.SnapshotReferences(3);
  ASSERT_EQ(tail.size(), 6u);
  EXPECT_EQ(tail[0].seq, 4);
  EXPECT_EQ(tail[0].type, RefType::kIndex);
  EXPECT_EQ(tail[0].hash, HashStatement("q1"));
  EXPECT_EQ(tail[1].type, RefType::kUsedIndex);
  EXPECT_EQ(tail[2].seq, 7);
  EXPECT_EQ(tail[2].type, RefType::kTable);
  EXPECT_EQ(tail[2].hash, HashStatement("q2"));
  // The workload record's own seq is not a reference row.
  tail = m.SnapshotReferences(5);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail[0].seq, 7);
  EXPECT_EQ(m.SnapshotReferences(9).size(), 1u);
  EXPECT_TRUE(m.SnapshotReferences(10).empty());
}

/// One statement of template "SELECT a FROM t WHERE id = ?" binding
/// table 1, attribute (1, 0) and the given available indexes.
void RunBound(Monitor* m, int id, const std::vector<ObjectId>& indexes,
              const std::vector<ObjectId>& used) {
  QueryTrace trace;
  m->OnQueryStart(&trace);
  m->OnParseComplete(&trace, "SELECT a FROM t WHERE id = " + std::to_string(id));
  m->OnBindComplete(&trace, std::vector<ObjectId>{1},
                    std::vector<std::pair<ObjectId, int>>{{1, 0}}, indexes);
  m->OnOptimizeComplete(&trace, 1.0, 1.0, used, 100, 0);
  m->OnExecuteComplete(&trace, 1000, 2, 2.0, 10, 3);
  m->Commit(&trace);
}

std::vector<ObjectId> AvailableIndexes(const Monitor& m, uint64_t hash) {
  std::vector<ObjectId> out;
  for (const auto& r : m.SnapshotReferences()) {
    if (r.hash == hash && r.type == RefType::kIndex) out.push_back(r.object_id);
  }
  return out;
}

TEST(MonitorTest, ReferenceSetChangeKeepsOldRecordsAndFrequencies) {
  MonitorConfig config = SmallConfig();
  config.workload_window = 3;
  Monitor m(config, RealClock::Instance());
  RunBound(&m, 1, {7}, {7});
  RunBound(&m, 2, {7}, {});
  RunBound(&m, 3, {7, 9}, {9});  // an index appeared in between
  EXPECT_EQ(AvailableIndexes(m, HashStatement("SELECT a FROM t WHERE id = 1")),
            std::vector<ObjectId>{7});
  EXPECT_EQ(AvailableIndexes(m, HashStatement("SELECT a FROM t WHERE id = 3")),
            (std::vector<ObjectId>{7, 9}));
  EXPECT_EQ(m.TableFrequencies()[1], 3);
  EXPECT_EQ((m.AttributeFrequencies()[{1, 0}]), 3);
  EXPECT_EQ(m.IndexFrequencies(), (std::map<ObjectId, int64_t>{{7, 1}, {9, 1}}));

  // Overwriting the old set's records retires it; its counts stay.
  for (int id = 4; id < 8; ++id) RunBound(&m, id, {7, 9}, {7});
  for (const auto& w : m.SnapshotWorkload()) {
    EXPECT_EQ(AvailableIndexes(m, w.hash), (std::vector<ObjectId>{7, 9}));
  }
  EXPECT_EQ(m.TableFrequencies()[1], 7);
  EXPECT_EQ((m.AttributeFrequencies()[{1, 0}]), 7);
  EXPECT_EQ(m.IndexFrequencies(), (std::map<ObjectId, int64_t>{{7, 5}, {9, 1}}));

  // A set that comes back is a new set; counts still add up.
  RunBound(&m, 8, {7}, {7});
  EXPECT_EQ(m.TableFrequencies()[1], 8);
  EXPECT_EQ(m.IndexFrequencies()[7], 6);
  m.Clear();
  EXPECT_TRUE(m.TableFrequencies().empty());
  EXPECT_TRUE(m.IndexFrequencies().empty());
}

TEST(MonitorTest, RegistryChurnMatchesArrivalOrderModel) {
  // The registry against a model of its contract: one row per hash,
  // evicting the earliest first arrival at the window, re-executions
  // bumping frequency and change stamp in place.
  MonitorConfig config = SmallConfig();  // statement window 4
  config.workload_window = 64;
  SimulatedClock clock(1);
  Monitor m(config, &clock);
  struct Row {
    int64_t frequency, first_seen, last_seen, seq;
  };
  std::unordered_map<uint64_t, Row> model;
  std::deque<uint64_t> arrivals;
  std::mt19937 rng(7);
  int64_t stamp = 0;
  for (int i = 0; i < 400; ++i) {
    clock.AdvanceMicros(static_cast<int64_t>(rng() % 3));
    std::string text = "SELECT a FROM t WHERE id = " + std::to_string(rng() % 9);
    uint64_t hash = HashStatement(text);
    RunStatement(&m, text);
    ++stamp;
    auto it = model.find(hash);
    if (it != model.end()) {
      it->second.frequency += 1;
      it->second.last_seen = clock.NowMicros();
      it->second.seq = stamp;
      continue;
    }
    if (arrivals.size() == 4) {
      model.erase(arrivals.front());
      arrivals.pop_front();
    }
    arrivals.push_back(hash);
    model[hash] = {1, clock.NowMicros(), clock.NowMicros(), stamp};

    std::vector<StatementRecord> rows = m.SnapshotStatements();
    ASSERT_EQ(rows.size(), model.size()) << i;
    for (const StatementRecord& r : rows) {
      auto expect = model.find(r.hash);
      ASSERT_NE(expect, model.end()) << i;
      EXPECT_EQ(HashStatement(r.text), r.hash);
      EXPECT_EQ(r.frequency, expect->second.frequency);
      EXPECT_EQ(r.first_seen_micros, expect->second.first_seen);
      EXPECT_EQ(r.last_seen_micros, expect->second.last_seen);
      EXPECT_EQ(r.seq, expect->second.seq);
    }
  }
}

}  // namespace
}  // namespace imon::monitor
