// Adversarial inputs for the analyzer: empty monitoring data, zero-row
// and all-NULL tables, and rule thresholds probed exactly at their
// boundaries (the off-by-one cases the happy-path tests never hit).
//
// The threshold tests drive the rules through synthetic wl_* rows
// (inserted directly into the workload DB), so est/actual costs and
// page counts are controlled to the digit.

#include <gtest/gtest.h>

#include <string>

#include "analyzer/analyzer.h"
#include "daemon/daemon.h"
#include "ima/ima.h"

namespace imon::analyzer {
namespace {

using engine::Database;
using engine::DatabaseOptions;

class AnalyzerAdversarialTest : public ::testing::Test {
 protected:
  AnalyzerAdversarialTest()
      : clock_(1000000000),
        monitored_(MonitoredOptions()),
        workload_db_(WorkloadOptions()) {
    EXPECT_TRUE(ima::RegisterImaTables(&monitored_).ok());
    EXPECT_TRUE(daemon::CreateWorkloadSchema(&workload_db_).ok());
  }

  DatabaseOptions MonitoredOptions() {
    DatabaseOptions o;
    o.name = "monitored";
    o.clock = &clock_;
    return o;
  }
  DatabaseOptions WorkloadOptions() {
    DatabaseOptions o;
    o.name = "workload";
    o.monitor.enabled = false;
    o.clock = &clock_;
    return o;
  }

  void MustExec(Database* db, const std::string& sql) {
    auto r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  }

  /// Synthetic statement history: one wl_templates row (its own
  /// template, fingerprint = hash) for one execution with exact
  /// est/actual costs.
  void AddStatement(int64_t hash, const std::string& text, double est_cost,
                    double actual_cost) {
    const std::string h = std::to_string(hash);
    MustExec(&workload_db_,
             "INSERT INTO wl_templates VALUES (1, 1, " + h + ", '" + text +
                 "', " + h + ", '" + text + "', 1, 1, " +
                 std::to_string(actual_cost) + ", " +
                 std::to_string(est_cost) + ", 0, 0, '', '', 0.0, 0.0, 0.0, " +
                 "0.0, 0.0, 0.0, 0, 0, 0, 0.0, 0.0)");
  }

  /// Synthetic wl_tables snapshot row.
  void AddTableSnapshot(const std::string& name, const std::string& storage,
                        int64_t data_pages, int64_t overflow_pages) {
    MustExec(&workload_db_, "INSERT INTO wl_tables VALUES (1, 0, '" + name +
                                "', 1, '" + storage + "', " +
                                std::to_string(data_pages) + ", " +
                                std::to_string(overflow_pages) + ", 100)");
  }

  int CountKind(const AnalysisReport& report, RecommendationKind kind) {
    int n = 0;
    for (const auto& r : report.recommendations) {
      if (r.kind == kind) ++n;
    }
    return n;
  }

  SimulatedClock clock_;
  Database monitored_;
  Database workload_db_;
};

TEST_F(AnalyzerAdversarialTest, EmptyWorkloadDbYieldsEmptyReport) {
  Analyzer analyzer(&monitored_, &workload_db_);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->statements_analyzed, 0);
  EXPECT_EQ(report->cost_mismatch_statements, 0);
  EXPECT_TRUE(report->recommendations.empty());
  EXPECT_TRUE(report->cost_diagram.empty());
  EXPECT_TRUE(report->locks_diagram.empty());
  EXPECT_TRUE(report->trends.empty());
}

TEST_F(AnalyzerAdversarialTest, LiveModeOnFreshEngineYieldsCleanReport) {
  // No workload DB attached and nothing ever executed: the analyzer
  // reads the live IMA tables of an idle engine.
  Analyzer analyzer(&monitored_, nullptr);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->cost_mismatch_statements, 0);
}

TEST_F(AnalyzerAdversarialTest, ZeroRowAndAllNullTablesDoNotBreakAnalysis) {
  MustExec(&monitored_, "CREATE TABLE empty_t (a INT, b TEXT)");
  MustExec(&monitored_, "CREATE TABLE nulls_t (a INT, b TEXT)");
  for (int i = 0; i < 20; ++i) {
    MustExec(&monitored_, "INSERT INTO nulls_t VALUES (NULL, NULL)");
  }
  // Statistics over all-NULL and zero-row data.
  MustExec(&monitored_, "ANALYZE empty_t");
  MustExec(&monitored_, "ANALYZE nulls_t");
  // Reference them so the rules see the attributes.
  MustExec(&monitored_, "SELECT a FROM empty_t WHERE a = 1");
  MustExec(&monitored_, "SELECT b FROM nulls_t WHERE b IS NULL");
  MustExec(&monitored_, "SELECT count(*) FROM nulls_t WHERE a < 5");

  Analyzer analyzer(&monitored_, nullptr);  // live IMA mode
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->statements_analyzed, 3);
}

TEST_F(AnalyzerAdversarialTest, CostMismatchFiresExactlyAtTheFactor) {
  // Default factor 3.0: ratio == 3.0 must fire, 2.99 must not
  // (the rule skips only ratio < factor).
  AddStatement(101, "SELECT * FROM t_at", 100.0, 300.0);      // ratio 3.00
  AddStatement(102, "SELECT * FROM t_below", 100.0, 299.0);   // ratio 2.99
  AddStatement(103, "SELECT * FROM t_inverse", 300.0, 100.0); // ratio 3.00
  Analyzer analyzer(&monitored_, &workload_db_);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->statements_analyzed, 3);
  // Both directions of a 3x mismatch flag; the 2.99x one does not.
  EXPECT_EQ(report->cost_mismatch_statements, 2);
}

TEST_F(AnalyzerAdversarialTest, ZeroCostStatementsAreIgnoredByR1) {
  AddStatement(201, "SELECT * FROM t_zero_est", 0.0, 500.0);
  AddStatement(202, "SELECT * FROM t_zero_act", 500.0, 0.0);
  Analyzer analyzer(&monitored_, &workload_db_);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  // Division by a zero cost must be skipped, not crash or flag.
  EXPECT_EQ(report->cost_mismatch_statements, 0);
}

TEST_F(AnalyzerAdversarialTest, OverflowRuleFiresOnlyAboveThreshold) {
  // Default threshold 0.10 of main pages: the rule skips
  // overflow <= 0.1 * main, so exactly-at-threshold must NOT fire.
  AddTableSnapshot("t_at", "HEAP", 100, 10);      // exactly 10%: no
  AddTableSnapshot("t_above", "HEAP", 100, 11);   // 11%: yes
  AddTableSnapshot("t_zero_main", "HEAP", 0, 50); // no main pages: skip
  AddTableSnapshot("t_btree", "BTREE", 100, 90);  // wrong structure: skip
  Analyzer analyzer(&monitored_, &workload_db_);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(CountKind(*report, RecommendationKind::kModifyToBtree), 1);
  for (const auto& rec : report->recommendations) {
    if (rec.kind == RecommendationKind::kModifyToBtree) {
      EXPECT_EQ(rec.table, "t_above");
      EXPECT_EQ(rec.sql, "MODIFY t_above TO BTREE");
    }
  }
}

TEST_F(AnalyzerAdversarialTest, OverflowRuleEvaluatesLatestSnapshotOnly) {
  // The table degraded (50% overflow), then was compacted: only the
  // newest snapshot may be judged.
  AddTableSnapshot("t_healed", "HEAP", 100, 50);
  AddTableSnapshot("t_healed", "HEAP", 100, 5);
  Analyzer analyzer(&monitored_, &workload_db_);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(CountKind(*report, RecommendationKind::kModifyToBtree), 0);
}

}  // namespace
}  // namespace imon::analyzer
