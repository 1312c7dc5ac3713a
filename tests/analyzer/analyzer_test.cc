#include "analyzer/analyzer.h"

#include <gtest/gtest.h>

#include "daemon/daemon.h"
#include "ima/ima.h"
#include "workload/nref.h"

#include <cmath>

namespace imon::analyzer {
namespace {

using engine::Database;
using engine::DatabaseOptions;

class AnalyzerTest : public ::testing::Test {
 protected:
  AnalyzerTest() : db_(DatabaseOptions{}) {
    EXPECT_TRUE(ima::RegisterImaTables(&db_).ok());
  }

  void MustExec(const std::string& sql) {
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  }

  Database db_;
};

TEST_F(AnalyzerTest, OverflowRuleRecommendsBtree) {
  MustExec("CREATE TABLE fat (id INT, pad TEXT) WITH MAIN_PAGES = 2");
  for (int i = 0; i < 300; ++i) {
    MustExec("INSERT INTO fat VALUES (" + std::to_string(i) + ", '" +
             std::string(100, 'p') + "')");
  }
  MustExec("SELECT count(*) FROM fat");  // reference it so it is monitored
  Analyzer analyzer(&db_, nullptr);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  bool found = false;
  for (const auto& rec : report->recommendations) {
    if (rec.kind == RecommendationKind::kModifyToBtree &&
        rec.table == "fat") {
      found = true;
      EXPECT_EQ(rec.sql, "MODIFY fat TO BTREE");
    }
  }
  EXPECT_TRUE(found) << report->ToString();
}

TEST_F(AnalyzerTest, MissingHistogramRuleFiresForReferencedColumns) {
  MustExec("CREATE TABLE t (a INT, b INT)");
  MustExec("INSERT INTO t VALUES (1, 2)");
  MustExec("SELECT a FROM t WHERE a = 1");
  Analyzer analyzer(&db_, nullptr);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok());
  bool found = false;
  for (const auto& rec : report->recommendations) {
    if (rec.kind == RecommendationKind::kCollectStatistics &&
        rec.table == "t") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report->ToString();
}

TEST_F(AnalyzerTest, CostMismatchRuleCountsStatements) {
  MustExec("CREATE TABLE t (v INT)");
  for (int i = 0; i < 2000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i % 4) + ")");
  }
  // Without statistics the default selectivity misestimates v = 1 badly
  // (25% actual vs 10% assumed) and the CPU/IO mix differs; run it a few
  // times so averages stabilize.
  for (int i = 0; i < 3; ++i) MustExec("SELECT count(*) FROM t WHERE v = 1");
  AnalyzerConfig config;
  config.cost_mismatch_factor = 1.5;
  Analyzer analyzer(&db_, nullptr, config);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->statements_analyzed, 1);
}

TEST_F(AnalyzerTest, IndexSelectionRecommendsUsefulIndex) {
  MustExec("CREATE TABLE t (a INT, b INT)");
  for (int i = 0; i < 4000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i) + ")");
  }
  MustExec("ANALYZE t");
  // A frequent, highly selective predicate on an unindexed column.
  for (int i = 0; i < 5; ++i) {
    MustExec("SELECT a FROM t WHERE b = 123");
  }
  Analyzer analyzer(&db_, nullptr);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok());
  const Recommendation* index_rec = nullptr;
  for (const auto& rec : report->recommendations) {
    if (rec.kind == RecommendationKind::kCreateIndex && rec.table == "t") {
      index_rec = &rec;
    }
  }
  ASSERT_NE(index_rec, nullptr) << report->ToString();
  EXPECT_GT(index_rec->estimated_benefit, 0);
  ASSERT_FALSE(index_rec->columns.empty());
  EXPECT_EQ(index_rec->columns[0], "b");
  // The cost diagram includes the improved virtual estimate.
  ASSERT_FALSE(report->cost_diagram.empty());
  bool improved = false;
  for (const auto& row : report->cost_diagram) {
    if (row.virtual_estimated_cost < row.estimated_cost) improved = true;
  }
  EXPECT_TRUE(improved);
}

TEST_F(AnalyzerTest, IndentedSelectGetsItsIndexRecommendation) {
  MustExec("CREATE TABLE t (a INT, b INT)");
  for (int i = 0; i < 4000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i) + ")");
  }
  MustExec("ANALYZE t");
  // The template's sample text keeps the leading whitespace.
  for (int i = 0; i < 5; ++i) MustExec("\n  SELECT a FROM t WHERE b = 123");
  Analyzer analyzer(&db_, nullptr);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok());
  bool found = false;
  for (const auto& rec : report->recommendations) {
    if (rec.kind == RecommendationKind::kCreateIndex && rec.table == "t" &&
        rec.columns == std::vector<std::string>{"b"}) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report->ToString();
}

TEST_F(AnalyzerTest, NoIndexRecommendedWhenAlreadyCovered) {
  MustExec("CREATE TABLE t (a INT, b INT)");
  for (int i = 0; i < 4000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i) + ")");
  }
  MustExec("ANALYZE t");
  MustExec("CREATE INDEX t_b ON t (b)");
  for (int i = 0; i < 5; ++i) MustExec("SELECT a FROM t WHERE b = 123");
  Analyzer analyzer(&db_, nullptr);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok());
  for (const auto& rec : report->recommendations) {
    if (rec.kind == RecommendationKind::kCreateIndex) {
      EXPECT_NE(rec.columns, std::vector<std::string>{"b"})
          << report->ToString();
    }
  }
}

TEST_F(AnalyzerTest, ApplyExecutesRecommendations) {
  MustExec("CREATE TABLE t (a INT, b INT) WITH MAIN_PAGES = 1");
  for (int i = 0; i < 3000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i) + ")");
  }
  for (int i = 0; i < 3; ++i) MustExec("SELECT a FROM t WHERE b = 77");
  Analyzer analyzer(&db_, nullptr);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->recommendations.empty());
  auto applied = analyzer.Apply(report->recommendations);
  ASSERT_TRUE(applied.ok());
  EXPECT_GT(*applied, 0);
  // The overflow rule must have restructured the table.
  auto table = db_.catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->structure, catalog::StorageStructure::kBtree);
}

TEST_F(AnalyzerTest, WorksThroughWorkloadDb) {
  // Full pipeline: monitored engine -> daemon -> workload DB -> analyzer.
  DatabaseOptions wl_options;
  wl_options.monitor.enabled = false;
  Database workload_db(wl_options);
  daemon::DaemonConfig config;
  config.polls_per_flush = 1;
  daemon::StorageDaemon storage_daemon(&db_, &workload_db, config);
  ASSERT_TRUE(storage_daemon.Initialize().ok());

  MustExec("CREATE TABLE t (a INT, b INT) WITH MAIN_PAGES = 1");
  for (int i = 0; i < 3000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i) + ")");
  }
  MustExec("ANALYZE t");
  for (int i = 0; i < 4; ++i) MustExec("SELECT a FROM t WHERE b = 55");
  ASSERT_TRUE(storage_daemon.PollOnce().ok());

  Analyzer analyzer(&db_, &workload_db);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->statements_analyzed, 0);
  bool has_index_rec = false;
  for (const auto& rec : report->recommendations) {
    if (rec.kind == RecommendationKind::kCreateIndex) has_index_rec = true;
  }
  EXPECT_TRUE(has_index_rec) << report->ToString();
}

TEST_F(AnalyzerTest, UnusedIndexRecommendedForDrop) {
  MustExec("CREATE TABLE t (a INT, b INT)");
  for (int i = 0; i < 200; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i) + ")");
  }
  MustExec("CREATE INDEX never_used ON t (b)");
  MustExec("CREATE UNIQUE INDEX unique_one ON t (a)");
  MustExec("SELECT count(*) FROM t");  // workload that uses no index
  Analyzer analyzer(&db_, nullptr);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok());
  bool drop_unused = false;
  for (const auto& rec : report->recommendations) {
    if (rec.kind == RecommendationKind::kDropIndex) {
      EXPECT_EQ(rec.sql, "DROP INDEX never_used") << rec.sql;
      drop_unused = rec.index_name == "never_used";
      EXPECT_EQ(rec.table, "t");
      // The inverse recreates the index verbatim (tuner rollback path).
      EXPECT_EQ(rec.inverse_sql, "CREATE INDEX never_used ON t (b)");
      // Unique (constraint) indexes are never recommended for drop.
      EXPECT_NE(rec.index_name, "unique_one");
    }
  }
  EXPECT_TRUE(drop_unused) << report->ToString();
}

TEST_F(AnalyzerTest, TrendsFittedOverWorkloadHistory) {
  SimulatedClock clock(1000000);
  engine::DatabaseOptions mon_options;
  mon_options.clock = &clock;
  engine::Database monitored(mon_options);
  ASSERT_TRUE(ima::RegisterImaTables(&monitored).ok());
  engine::DatabaseOptions wl_options;
  wl_options.monitor.enabled = false;
  wl_options.clock = &clock;
  engine::Database workload_db(wl_options);
  daemon::DaemonConfig config;
  config.polls_per_flush = 1;
  daemon::StorageDaemon storage_daemon(&monitored, &workload_db, config,
                                       &clock);
  ASSERT_TRUE(storage_daemon.Initialize().ok());

  ASSERT_TRUE(monitored.Execute("CREATE TABLE grower (v TEXT) "
                                "WITH MAIN_PAGES = 1")
                  .ok());
  // Three "days": the table grows each day.
  for (int day = 0; day < 3; ++day) {
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(monitored
                      .Execute("INSERT INTO grower VALUES ('" +
                               std::string(60, 'g') + "')")
                      .ok());
    }
    ASSERT_TRUE(storage_daemon.PollOnce().ok());
    clock.AdvanceSeconds(24 * 3600);
  }

  Analyzer analyzer(&monitored, &workload_db);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok());
  const TableTrend* grower = nullptr;
  for (const auto& t : report->trends) {
    if (t.table == "grower") grower = &t;
  }
  ASSERT_NE(grower, nullptr) << report->ToString();
  EXPECT_GT(grower->pages_per_day, 1.0);
  EXPECT_GT(grower->rows_per_day, 100.0);
  EXPECT_TRUE(std::isfinite(grower->days_to_double));
}

TEST_F(AnalyzerTest, LocksDiagramHasSeries) {
  db_.SampleSystemStats();
  db_.SampleSystemStats();
  db_.SampleSystemStats();
  Analyzer analyzer(&db_, nullptr);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->locks_diagram.size(), 3u);
}

TEST_F(AnalyzerTest, ReportIsHumanReadable) {
  MustExec("CREATE TABLE t (v INT) WITH MAIN_PAGES = 1");
  for (int i = 0; i < 1000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  MustExec("SELECT count(*) FROM t WHERE v = 3");
  Analyzer analyzer(&db_, nullptr);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok());
  std::string text = report->ToString();
  EXPECT_NE(text.find("Analyzer report"), std::string::npos);
  EXPECT_NE(text.find("Recommendations"), std::string::npos);
}

}  // namespace
}  // namespace imon::analyzer
