// Closed-loop tuner: guarded apply, verification windows, rollback.
//
// End-to-end scenarios, all deterministic under SimulatedClock:
//  * a skewed workload leads to an R4 index recommendation, the tuner
//    revalidates + applies it, post-apply costs improve, and the action
//    is KEPT — visible in imp_tuning_actions and wl_tuning_actions;
//  * an injected post-apply regression makes verification execute the
//    inverse DDL (automatic DROP INDEX rollback);
//  * a crash injected mid-apply (before or after the DDL) leaves the
//    catalog consistent after the next orchestrator tick / a fresh
//    orchestrator's audit-trail recovery;
//  * a seeded fuzz loop hammers the apply path with probabilistic
//    faults and simulated crashes, checking terminal-state/catalog
//    consistency every iteration.
//
// Custom main(): `tuner_test --seed=N --iters=K`. tier-1 reruns this
// binary under -DIMON_SANITIZE=thread (scripts/tier1.sh).

#include "tuner/tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analyzer/analyzer.h"
#include "daemon/daemon.h"
#include "engine/database.h"
#include "ima/ima.h"
#include "testing/fault_injector.h"

namespace imon::tuner {
namespace {

uint64_t g_seed = 42;
int g_iters = 10;

using analyzer::Recommendation;
using analyzer::RecommendationKind;
using engine::Database;
using engine::DatabaseOptions;
using engine::QueryResult;

class TunerTest : public ::testing::Test {
 protected:
  TunerTest()
      : clock_(1000000000),
        monitored_(MonitoredOptions()),
        workload_db_(WorkloadOptions()) {
    EXPECT_TRUE(ima::RegisterImaTables(&monitored_).ok());
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

  /// Short windows and no cooldown so scenarios run in a few ticks.
  TunerConfig FastConfig() {
    TunerConfig c;
    c.verification_window = std::chrono::seconds(60);
    c.table_cooldown = std::chrono::seconds(0);
    c.min_revalidated_benefit = 1.0;
    return c;
  }

  QueryResult MustExec(Database* db, const std::string& sql) {
    auto r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? r.TakeValue() : QueryResult{};
  }

  /// Skewed single-table workload: enough rows that a heap scan is
  /// expensive, repeated point SELECTs on the unindexed column.
  void BuildSkewedWorkload(const std::string& table, int rows,
                           int selects) {
    MustExec(&monitored_,
             "CREATE TABLE " + table + " (a INT, b INT, c INT)");
    for (int i = 0; i < rows; ++i) {
      MustExec(&monitored_, "INSERT INTO " + table + " VALUES (" +
                                std::to_string(i) + ", " +
                                std::to_string(i % 500) + ", " +
                                std::to_string(i % 7) + ")");
    }
    MustExec(&monitored_, "ANALYZE " + table);
    for (int i = 0; i < selects; ++i) {
      MustExec(&monitored_,
               "SELECT a FROM " + table + " WHERE b = 123");
    }
  }

  Recommendation IndexRec(const std::string& table,
                          const std::string& column) {
    Recommendation rec;
    rec.kind = RecommendationKind::kCreateIndex;
    rec.table = table;
    rec.columns = {column};
    rec.index_name = "idx_" + table + "_" + column;
    rec.sql = "CREATE INDEX " + rec.index_name + " ON " + table + " (" +
              column + ")";
    rec.inverse_sql = "DROP INDEX " + rec.index_name;
    rec.estimated_benefit = 100;
    rec.reason = "test";
    return rec;
  }

  /// State of action `id` as reported by the imp_tuning_actions virtual
  /// table (not the in-memory snapshot), so tests exercise the SQL path.
  std::string ImaState(int64_t id) {
    QueryResult r = MustExec(
        &monitored_, "SELECT action_id, state FROM imp_tuning_actions");
    for (const Row& row : r.rows) {
      if (row[0].AsInt() == id) return row[1].AsText();
    }
    return "<missing>";
  }

  bool IndexExists(const std::string& name) {
    return monitored_.catalog()->GetIndex(name).ok();
  }

  SimulatedClock clock_;
  Database monitored_;
  Database workload_db_;
};

TEST_F(TunerTest, SkewedWorkloadIndexAppliedAndKeptEndToEnd) {
  BuildSkewedWorkload("t", 2000, 5);

  // The real analyzer (live IMA mode) must recommend the index.
  analyzer::Analyzer an(&monitored_, nullptr);
  auto report = an.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  std::vector<Recommendation> index_recs;
  for (const Recommendation& rec : report->recommendations) {
    if (rec.kind == RecommendationKind::kCreateIndex) index_recs.push_back(rec);
  }
  ASSERT_FALSE(index_recs.empty()) << report->ToString();

  TuningOrchestrator orch(&monitored_, &workload_db_, FastConfig(), &clock_);
  ASSERT_TRUE(orch.Initialize().ok());
  ASSERT_TRUE(RegisterTuningActionsTable(&monitored_, &orch).ok());
  ASSERT_TRUE(orch.Submit(index_recs).ok());

  // Tick 1: revalidate (what-if rerun against fresh statistics) + apply.
  ASSERT_TRUE(orch.Tick().ok());
  ASSERT_TRUE(IndexExists(index_recs[0].index_name));
  EXPECT_EQ(ImaState(1), "VERIFYING");
  EXPECT_EQ(orch.stats().applied, 1);

  // The workload re-runs cheaper through the new index.
  for (int i = 0; i < 5; ++i) {
    MustExec(&monitored_, "SELECT a FROM t WHERE b = 123");
  }
  clock_.AdvanceSeconds(61);
  ASSERT_TRUE(orch.Tick().ok());

  EXPECT_EQ(ImaState(1), "KEPT");
  EXPECT_TRUE(IndexExists(index_recs[0].index_name));
  auto actions = orch.SnapshotActions();
  ASSERT_FALSE(actions.empty());
  EXPECT_GT(actions[0].baseline_cost, 0);
  EXPECT_GT(actions[0].observed_execs, 0);
  EXPECT_LT(actions[0].observed_cost, actions[0].baseline_cost)
      << "index did not make the tracked statements cheaper";

  // Audit trail persisted the full transition history.
  QueryResult audit = MustExec(
      &workload_db_, "SELECT state FROM wl_tuning_actions");
  std::vector<std::string> states;
  for (const Row& row : audit.rows) states.push_back(row[0].AsText());
  for (const char* expected :
       {"PROPOSED", "REVALIDATED", "APPLYING", "APPLIED", "VERIFYING",
        "KEPT"}) {
    EXPECT_NE(std::find(states.begin(), states.end(), expected),
              states.end())
        << "missing audit state " << expected;
  }

  // tuner.* self-observability counters surfaced over imp_metrics.
  QueryResult metrics = MustExec(
      &monitored_, "SELECT name, value FROM imp_metrics");
  int64_t applied_metric = -1;
  for (const Row& row : metrics.rows) {
    if (row[0].AsText() == "tuner.applied") applied_metric = row[1].AsInt();
  }
  EXPECT_EQ(applied_metric, 1);
}

TEST_F(TunerTest, PostApplyRegressionTriggersAutomaticRollback) {
  BuildSkewedWorkload("t", 1000, 5);

  TunerConfig config = FastConfig();
  config.min_revalidated_benefit = 0;
  TuningOrchestrator orch(&monitored_, &workload_db_, config, &clock_);
  ASSERT_TRUE(orch.Initialize().ok());
  ASSERT_TRUE(RegisterTuningActionsTable(&monitored_, &orch).ok());
  ASSERT_TRUE(orch.Submit({IndexRec("t", "b")}).ok());

  ASSERT_TRUE(orch.Tick().ok());
  ASSERT_TRUE(IndexExists("idx_t_b"));
  EXPECT_EQ(ImaState(1), "VERIFYING");

  // Inject a regression: the table grows sharply and the post-apply
  // window observes much more expensive statements against it.
  for (int i = 0; i < 2000; ++i) {
    MustExec(&monitored_, "INSERT INTO t VALUES (" + std::to_string(i) +
                              ", 77, 0)");
  }
  for (int i = 0; i < 10; ++i) {
    MustExec(&monitored_, "SELECT a FROM t WHERE c < 100");
  }
  clock_.AdvanceSeconds(61);
  ASSERT_TRUE(orch.Tick().ok());

  EXPECT_EQ(ImaState(1), "ROLLED_BACK");
  EXPECT_FALSE(IndexExists("idx_t_b"))
      << "rollback must execute the inverse DROP INDEX";
  EXPECT_EQ(orch.stats().rolled_back, 1);
  auto action = orch.SnapshotActions()[0];
  EXPECT_GT(action.observed_cost,
            action.baseline_cost * (1.0 + config.regression_tolerance));
}

TEST_F(TunerTest, StaleRecommendationsAreRejectedAndDuplicatesDeduped) {
  BuildSkewedWorkload("t", 300, 3);

  TuningOrchestrator orch(&monitored_, &workload_db_, FastConfig(), &clock_);
  ASSERT_TRUE(orch.Initialize().ok());

  // A recommendation for a table that no longer exists is stale.
  Recommendation gone = IndexRec("vanished", "b");
  // A drop for an index the workload is actively using is stale too.
  MustExec(&monitored_, "CREATE INDEX idx_live ON t (b)");
  MustExec(&monitored_, "SELECT a FROM t WHERE b = 9");
  Recommendation drop_live;
  drop_live.kind = RecommendationKind::kDropIndex;
  drop_live.table = "t";
  drop_live.index_name = "idx_live";
  drop_live.sql = "DROP INDEX idx_live";
  drop_live.inverse_sql = "CREATE INDEX idx_live ON t (b)";

  ASSERT_TRUE(orch.Submit({gone, gone, drop_live}).ok());
  EXPECT_EQ(orch.stats().submitted, 2);
  EXPECT_EQ(orch.stats().deduplicated, 1);

  ASSERT_TRUE(orch.Tick().ok());
  EXPECT_EQ(orch.stats().rejected, 2);
  for (const TuningAction& action : orch.SnapshotActions()) {
    EXPECT_EQ(action.state, ActionState::kRejected) << action.detail;
  }
  EXPECT_TRUE(IndexExists("idx_live"));
}

TEST_F(TunerTest, CrashBeforeDdlFailsActionAndLeavesCatalogClean) {
  BuildSkewedWorkload("t", 300, 3);

  testing::FaultConfig fault;
  fault.seed = g_seed;
  fault.fail_apply_at = 1;  // crash point 1: before the DDL
  testing::FaultInjector injector(fault);
  injector.Arm();

  TunerConfig config = FastConfig();
  config.min_revalidated_benefit = 0;
  TuningOrchestrator orch(&monitored_, &workload_db_, config, &clock_);
  ASSERT_TRUE(orch.Initialize().ok());
  orch.set_apply_fault_hook([&] { return injector.BeforeApply(); });

  ASSERT_TRUE(orch.Submit({IndexRec("t", "b")}).ok());
  ASSERT_TRUE(orch.Tick().ok());
  // The "crashed" apply never ran its DDL.
  EXPECT_FALSE(IndexExists("idx_t_b"));
  EXPECT_EQ(orch.SnapshotActions()[0].state, ActionState::kApplying);
  EXPECT_EQ(orch.stats().apply_failures, 1);

  // Next tick reconciles: no effect in the catalog -> FAILED.
  ASSERT_TRUE(orch.Tick().ok());
  EXPECT_EQ(orch.SnapshotActions()[0].state, ActionState::kFailed);
  EXPECT_FALSE(IndexExists("idx_t_b"));
  EXPECT_EQ(orch.stats().reconciled, 1);
  EXPECT_EQ(injector.counters().apply_faults, 1);
}

TEST_F(TunerTest, CrashAfterDdlIsUndoneByFreshOrchestratorRecovery) {
  BuildSkewedWorkload("t", 300, 3);

  testing::FaultConfig fault;
  fault.seed = g_seed;
  fault.fail_apply_at = 2;  // crash point 2: after the DDL
  testing::FaultInjector injector(fault);
  injector.Arm();

  TunerConfig config = FastConfig();
  config.min_revalidated_benefit = 0;
  {
    TuningOrchestrator orch(&monitored_, &workload_db_, config, &clock_);
    ASSERT_TRUE(orch.Initialize().ok());
    orch.set_apply_fault_hook([&] { return injector.BeforeApply(); });
    ASSERT_TRUE(orch.Submit({IndexRec("t", "b")}).ok());
    ASSERT_TRUE(orch.Tick().ok());
    // The DDL completed but the baseline was never captured.
    EXPECT_TRUE(IndexExists("idx_t_b"));
    EXPECT_EQ(orch.SnapshotActions()[0].state, ActionState::kApplying);
  }  // crash: the orchestrator instance is gone

  TuningOrchestrator recovered(&monitored_, &workload_db_, config, &clock_);
  ASSERT_TRUE(recovered.Initialize().ok());
  auto actions = recovered.SnapshotActions();
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].state, ActionState::kApplying)
      << "recovery must resurrect the interrupted apply from the audit";

  ASSERT_TRUE(recovered.Tick().ok());
  EXPECT_EQ(recovered.SnapshotActions()[0].state, ActionState::kRolledBack);
  EXPECT_FALSE(IndexExists("idx_t_b"))
      << "reconciliation must undo the half-applied index";
  EXPECT_EQ(recovered.stats().reconciled, 1);
}

TEST_F(TunerTest, VerificationWindowSurvivesRestart) {
  BuildSkewedWorkload("t", 500, 4);

  TunerConfig config = FastConfig();
  config.min_revalidated_benefit = 0;
  double baseline = 0;
  {
    TuningOrchestrator orch(&monitored_, &workload_db_, config, &clock_);
    ASSERT_TRUE(orch.Initialize().ok());
    ASSERT_TRUE(orch.Submit({IndexRec("t", "b")}).ok());
    ASSERT_TRUE(orch.Tick().ok());
    ASSERT_EQ(orch.SnapshotActions()[0].state, ActionState::kVerifying);
    baseline = orch.SnapshotActions()[0].baseline_cost;
    ASSERT_GT(baseline, 0);
  }

  TuningOrchestrator recovered(&monitored_, &workload_db_, config, &clock_);
  ASSERT_TRUE(recovered.Initialize().ok());
  auto actions = recovered.SnapshotActions();
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].state, ActionState::kVerifying);
  EXPECT_EQ(actions[0].baseline_cost, baseline)
      << "the recovered baseline must come from the audit trail";

  for (int i = 0; i < 4; ++i) {
    MustExec(&monitored_, "SELECT a FROM t WHERE b = 123");
  }
  clock_.AdvanceSeconds(61);
  ASSERT_TRUE(recovered.Tick().ok());
  EXPECT_EQ(recovered.SnapshotActions()[0].state, ActionState::kKept);
  EXPECT_TRUE(IndexExists("idx_t_b"));
}

TEST_F(TunerTest, CooldownSpacesApplsOnSameTable) {
  BuildSkewedWorkload("t", 300, 3);
  MustExec(&monitored_, "SELECT a FROM t WHERE c = 3");

  TunerConfig config = FastConfig();
  config.min_revalidated_benefit = 0;
  config.table_cooldown = std::chrono::seconds(1000);
  TuningOrchestrator orch(&monitored_, &workload_db_, config, &clock_);
  ASSERT_TRUE(orch.Initialize().ok());
  ASSERT_TRUE(
      orch.Submit({IndexRec("t", "b"), IndexRec("t", "c")}).ok());

  ASSERT_TRUE(orch.Tick().ok());  // applies the first only (single-flight)
  EXPECT_EQ(orch.stats().applied, 1);
  EXPECT_TRUE(IndexExists("idx_t_b"));
  EXPECT_FALSE(IndexExists("idx_t_c"));

  clock_.AdvanceSeconds(61);  // past the window, inside the cooldown
  ASSERT_TRUE(orch.Tick().ok());
  EXPECT_EQ(orch.SnapshotActions()[0].state, ActionState::kKept);
  EXPECT_FALSE(IndexExists("idx_t_c"));
  EXPECT_GT(orch.stats().cooldown_skips, 0);

  clock_.AdvanceSeconds(1000);  // cooldown over
  ASSERT_TRUE(orch.Tick().ok());
  EXPECT_TRUE(IndexExists("idx_t_c"));
  EXPECT_EQ(orch.stats().applied, 2);
}

using Columns = std::vector<std::pair<std::string, TypeId>>;

Columns NamesAndTypes(const std::vector<catalog::ColumnInfo>& columns) {
  Columns out;
  for (const catalog::ColumnInfo& c : columns) out.emplace_back(c.name, c.type);
  return out;
}

TEST_F(TunerTest, TableColumnsArePinned) {
  ASSERT_TRUE(CreateTuningSchema(&workload_db_).ok());
  TuningOrchestrator orch(&monitored_, &workload_db_, FastConfig(), &clock_);
  ASSERT_TRUE(orch.Initialize().ok());
  ASSERT_TRUE(RegisterTuningActionsTable(&monitored_, &orch).ok());
  ASSERT_TRUE(RegisterTuningProvenanceTable(&monitored_, &orch).ok());
  using enum TypeId;
  const Columns actions = {
      {"action_id", kInt}, {"state", kText}, {"kind", kText},
      {"table_name", kText}, {"index_name", kText}, {"action_sql", kText},
      {"inverse_sql", kText}, {"benefit", kDouble},
      {"baseline_cost", kDouble}, {"observed_cost", kDouble},
      {"observed_execs", kInt}, {"proposed_at", kInt}, {"applied_at", kInt},
      {"decided_at", kInt}, {"detail", kText}, {"decision_id", kInt},
      {"rule", kText}};
  const Columns audit = {
      {"action_id", kInt}, {"event_seq", kInt}, {"event_at", kInt},
      {"state", kText}, {"kind", kText}, {"table_name", kText},
      {"index_name", kText}, {"action_sql", kText}, {"inverse_sql", kText},
      {"benefit", kDouble}, {"baseline_cost", kDouble},
      {"baseline_execs", kInt}, {"applied_seq", kInt},
      {"observed_cost", kDouble}, {"observed_execs", kInt}, {"detail", kText},
      {"decision_id", kInt}, {"rule", kText}};
  const Columns provenance = {
      {"decision_id", kInt}, {"action_id", kInt}, {"rule", kText},
      {"fingerprint", kInt}, {"executions", kInt}, {"total_actual", kDouble},
      {"total_estimated", kDouble}, {"recommended_at", kInt}};

  auto ima_columns = [&](const char* name) {
    auto provider = monitored_.catalog()->GetVirtualTable(name);
    return provider == nullptr ? Columns{} : NamesAndTypes(provider->Schema());
  };
  auto wl_columns = [&](const char* name) {
    auto table = workload_db_.catalog()->GetTable(name);
    return table.ok() ? NamesAndTypes(table->columns) : Columns{};
  };
  EXPECT_EQ(ima_columns("imp_tuning_actions"), actions);
  EXPECT_EQ(ima_columns("imp_tuning_provenance"), provenance);
  EXPECT_EQ(wl_columns("wl_tuning_actions"), audit);
  EXPECT_EQ(wl_columns("wl_tuning_provenance"),
            ima_columns("imp_tuning_provenance"));
}

TEST_F(TunerTest, AuditTrailWithOtherColumnsFailsRecovery) {
  // A trail without the decision_id and rule columns.
  MustExec(&workload_db_,
           "CREATE TABLE wl_tuning_actions (action_id INT, event_seq INT, "
           "event_at INT, state TEXT, kind TEXT, table_name TEXT, "
           "index_name TEXT, action_sql TEXT, inverse_sql TEXT, "
           "benefit DOUBLE, baseline_cost DOUBLE, baseline_execs INT, "
           "applied_seq INT, observed_cost DOUBLE, observed_execs INT, "
           "detail TEXT)");
  MustExec(&workload_db_,
           "INSERT INTO wl_tuning_actions VALUES (1, 1, 5, 'PROPOSED', "
           "'CREATE INDEX', 't', 'idx_t_b', 'CREATE INDEX idx_t_b ON t (b)', "
           "'DROP INDEX idx_t_b', 100.0, 0.0, 0, 0, 0.0, 0, 'test')");
  TuningOrchestrator orch(&monitored_, &workload_db_, FastConfig(), &clock_);
  Status s = orch.Initialize();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
  EXPECT_TRUE(orch.SnapshotActions().empty());
}

TEST_F(TunerTest, DaemonFlushDrivesTheLoop) {
  ASSERT_TRUE(daemon::CreateWorkloadSchema(&workload_db_).ok());
  daemon::DaemonConfig dc;
  dc.polls_per_flush = 1;
  dc.flushes_per_purge = 1000;
  daemon::StorageDaemon storage_daemon(&monitored_, &workload_db_, dc,
                                       &clock_);
  ASSERT_TRUE(storage_daemon.Initialize().ok());

  TunerConfig config = FastConfig();
  config.min_revalidated_benefit = 0;
  TuningOrchestrator orch(&monitored_, &workload_db_, config, &clock_);
  ASSERT_TRUE(orch.Initialize().ok());
  storage_daemon.set_flush_listener([&] { (void)orch.Tick(); });

  BuildSkewedWorkload("t", 200, 3);
  ASSERT_TRUE(orch.Submit({IndexRec("t", "b")}).ok());

  ASSERT_TRUE(storage_daemon.PollOnce().ok());  // flush -> tick -> apply
  EXPECT_GE(orch.stats().ticks, 1);
  EXPECT_TRUE(IndexExists("idx_t_b"));
  clock_.AdvanceSeconds(61);
  ASSERT_TRUE(storage_daemon.PollOnce().ok());  // flush -> tick -> verdict
  EXPECT_EQ(orch.SnapshotActions()[0].state, ActionState::kKept);
}

TEST_F(TunerTest, ConcurrentTicksAndImaReadsAreSafe) {
  BuildSkewedWorkload("t", 200, 3);

  TunerConfig config = FastConfig();
  config.min_revalidated_benefit = 0;
  config.verification_window = std::chrono::seconds(0);
  TuningOrchestrator orch(&monitored_, &workload_db_, config, &clock_);
  ASSERT_TRUE(orch.Initialize().ok());
  ASSERT_TRUE(RegisterTuningActionsTable(&monitored_, &orch).ok());
  ASSERT_TRUE(orch.Submit({IndexRec("t", "b"), IndexRec("t", "c")}).ok());

  std::thread ticker([&] {
    for (int i = 0; i < 30; ++i) (void)orch.Tick();
  });
  std::thread submitter([&] {
    for (int i = 0; i < 10; ++i) {
      (void)orch.Submit({IndexRec("t", "b")});
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto session = monitored_.CreateSession();
      for (int i = 0; i < 40; ++i) {
        (void)monitored_.Execute("SELECT action_id FROM imp_tuning_actions",
                                 session.get());
        (void)monitored_.Execute("SELECT name FROM imp_metrics",
                                 session.get());
      }
    });
  }
  ticker.join();
  submitter.join();
  for (auto& t : readers) t.join();

  // With a zero-length window every structural action must settle.
  for (int i = 0; i < 5; ++i) (void)orch.Tick();
  for (const TuningAction& action : orch.SnapshotActions()) {
    EXPECT_TRUE(ActionStateIsTerminal(action.state))
        << ActionStateName(action.state) << ": " << action.detail;
  }
}

TEST_F(TunerTest, ProvenanceJoinRoundTrip) {
  BuildSkewedWorkload("t", 2000, 5);

  // Real analyzer output, so decision_id / rule / evidence are the ones
  // Analyze() stamped — not hand-crafted values.
  analyzer::Analyzer an(&monitored_, nullptr);
  auto report = an.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  std::vector<Recommendation> index_recs;
  for (const Recommendation& rec : report->recommendations) {
    if (rec.kind == RecommendationKind::kCreateIndex) index_recs.push_back(rec);
  }
  ASSERT_FALSE(index_recs.empty()) << report->ToString();
  ASSERT_NE(index_recs[0].decision_id, 0);
  ASSERT_EQ(index_recs[0].rule, "R4");
  ASSERT_FALSE(index_recs[0].evidence.empty());

  {
    TuningOrchestrator orch(&monitored_, &workload_db_, FastConfig(),
                            &clock_);
    ASSERT_TRUE(orch.Initialize().ok());
    ASSERT_TRUE(RegisterTuningActionsTable(&monitored_, &orch).ok());
    ASSERT_TRUE(RegisterTuningProvenanceTable(&monitored_, &orch).ok());
    ASSERT_TRUE(orch.Submit(index_recs).ok());

    // The action carries the decision id; every evidence template became
    // one provenance row tied to it.
    auto actions = orch.SnapshotActions();
    ASSERT_FALSE(actions.empty());
    EXPECT_EQ(actions[0].decision_id, index_recs[0].decision_id);
    EXPECT_EQ(actions[0].rule, "R4");
    auto provenance = orch.SnapshotProvenance();
    ASSERT_EQ(provenance.size(), index_recs[0].evidence.size());
    EXPECT_EQ(provenance[0].decision_id, index_recs[0].decision_id);
    EXPECT_EQ(provenance[0].action_id, actions[0].id);
    EXPECT_EQ(provenance[0].fingerprint, index_recs[0].evidence[0].fingerprint);
    EXPECT_EQ(provenance[0].executions, index_recs[0].evidence[0].executions);

    // SQL sees the same rows: imp_tuning_provenance joins
    // imp_tuning_actions on both decision_id and action_id.
    QueryResult joined = MustExec(
        &monitored_,
        "SELECT p.decision_id, a.decision_id, p.rule, a.rule "
        "FROM imp_tuning_provenance p "
        "JOIN imp_tuning_actions a ON p.action_id = a.action_id");
    ASSERT_EQ(joined.rows.size(), provenance.size());
    for (const Row& row : joined.rows) {
      EXPECT_EQ(row[0].AsInt(), row[1].AsInt());
      EXPECT_EQ(row[2].AsText(), row[3].AsText());
    }
  }

  // A fresh orchestrator over the same workload DB recovers both the
  // actions (with decision_id / rule from the audit columns) and the
  // evidence rows from wl_tuning_provenance.
  TuningOrchestrator recovered(&monitored_, &workload_db_, FastConfig(),
                               &clock_);
  ASSERT_TRUE(recovered.Initialize().ok());
  auto actions = recovered.SnapshotActions();
  ASSERT_FALSE(actions.empty());
  EXPECT_EQ(actions[0].decision_id, index_recs[0].decision_id);
  EXPECT_EQ(actions[0].rule, "R4");
  auto provenance = recovered.SnapshotProvenance();
  ASSERT_EQ(provenance.size(), index_recs[0].evidence.size());
  EXPECT_EQ(provenance[0].decision_id, index_recs[0].decision_id);
  EXPECT_EQ(provenance[0].fingerprint, index_recs[0].evidence[0].fingerprint);
}

// Pins the documented acceptance query: one SQL join over
// imp_tuning_provenance ⋈ imp_tuning_actions ⋈ imp_templates answers
// "why does index I exist and what happened to cost afterwards"
// (examples/provenance_explorer.cpp runs the same statement).
TEST_F(TunerTest, ProvenanceExplainsKeptIndexOverSql) {
  BuildSkewedWorkload("t", 2000, 5);

  analyzer::Analyzer an(&monitored_, nullptr);
  auto report = an.Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  std::vector<Recommendation> index_recs;
  for (const Recommendation& rec : report->recommendations) {
    if (rec.kind == RecommendationKind::kCreateIndex) index_recs.push_back(rec);
  }
  ASSERT_FALSE(index_recs.empty()) << report->ToString();

  TuningOrchestrator orch(&monitored_, &workload_db_, FastConfig(), &clock_);
  ASSERT_TRUE(orch.Initialize().ok());
  ASSERT_TRUE(RegisterTuningActionsTable(&monitored_, &orch).ok());
  ASSERT_TRUE(RegisterTuningProvenanceTable(&monitored_, &orch).ok());
  ASSERT_TRUE(orch.Submit(index_recs).ok());

  ASSERT_TRUE(orch.Tick().ok());  // revalidate + apply
  for (int i = 0; i < 5; ++i) {
    MustExec(&monitored_, "SELECT a FROM t WHERE b = 123");
  }
  clock_.AdvanceSeconds(61);
  ASSERT_TRUE(orch.Tick().ok());  // verdict
  ASSERT_EQ(ImaState(1), "KEPT");

  QueryResult r = MustExec(
      &monitored_,
      "SELECT a.index_name, a.state, p.rule, t.template_text, "
      "p.executions, a.baseline_cost, a.observed_cost "
      "FROM imp_tuning_provenance p "
      "JOIN imp_tuning_actions a ON p.action_id = a.action_id "
      "JOIN imp_templates t ON p.fingerprint = t.fingerprint");
  ASSERT_FALSE(r.rows.empty())
      << "the provenance join must explain the kept index";
  bool explained = false;
  for (const Row& row : r.rows) {
    if (row[0].AsText() != index_recs[0].index_name) continue;
    explained = true;
    EXPECT_EQ(row[1].AsText(), "KEPT");
    EXPECT_EQ(row[2].AsText(), "R4");
    EXPECT_NE(row[3].AsText().find("select"), std::string::npos)
        << row[3].AsText();
    EXPECT_GT(row[4].AsInt(), 0);
    EXPECT_GT(row[5].AsDouble(), 0);   // baseline cost before the index
    EXPECT_LT(row[6].AsDouble(), row[5].AsDouble())
        << "cost afterwards should have improved";
  }
  EXPECT_TRUE(explained) << "no joined row for " << index_recs[0].index_name;
}

// Seeded fuzz: probabilistic apply faults + simulated crashes, every
// iteration checked for terminal-state/catalog consistency.
TEST_F(TunerTest, ApplyFaultFuzzKeepsCatalogConsistent) {
  testing::FaultConfig fault;
  fault.seed = g_seed;
  fault.apply_fault_prob = 0.4;
  testing::FaultInjector injector(fault);
  injector.Arm();

  TunerConfig config = FastConfig();
  config.min_revalidated_benefit = 0;
  config.verification_window = std::chrono::seconds(1);

  for (int iter = 0; iter < g_iters; ++iter) {
    std::string table = "t" + std::to_string(iter);
    MustExec(&monitored_, "CREATE TABLE " + table + " (a INT, b INT)");
    for (int i = 0; i < 50; ++i) {
      MustExec(&monitored_, "INSERT INTO " + table + " VALUES (" +
                                std::to_string(i) + ", " +
                                std::to_string(i % 5) + ")");
    }
    MustExec(&monitored_, "SELECT a FROM " + table + " WHERE b = 3");

    // Each iteration gets a fresh orchestrator (a simulated crash +
    // restart): it must recover every prior action from the audit.
    TuningOrchestrator orch(&monitored_, &workload_db_, config, &clock_);
    ASSERT_TRUE(orch.Initialize().ok());
    orch.set_apply_fault_hook([&] { return injector.BeforeApply(); });
    ASSERT_TRUE(orch.Submit({IndexRec(table, "b")}).ok());

    for (int tick = 0; tick < 8; ++tick) {
      ASSERT_TRUE(orch.Tick().ok());
      clock_.AdvanceSeconds(2);
      bool all_terminal = true;
      for (const TuningAction& action : orch.SnapshotActions()) {
        all_terminal = all_terminal && ActionStateIsTerminal(action.state);
      }
      if (all_terminal) break;
    }

    // Drain with faults off: everything must reach a terminal state.
    injector.Disarm();
    for (int tick = 0; tick < 4; ++tick) {
      ASSERT_TRUE(orch.Tick().ok());
      clock_.AdvanceSeconds(2);
    }
    injector.Arm();

    for (const TuningAction& action : orch.SnapshotActions()) {
      ASSERT_TRUE(ActionStateIsTerminal(action.state))
          << "iter " << iter << ": " << ActionStateName(action.state)
          << " (" << action.detail << ")";
      if (action.kind != RecommendationKind::kCreateIndex) continue;
      bool exists = IndexExists(action.index_name);
      if (action.state == ActionState::kKept) {
        EXPECT_TRUE(exists) << "iter " << iter << ": kept " +
                                   action.index_name + " missing";
      } else {
        EXPECT_FALSE(exists)
            << "iter " << iter << ": " << ActionStateName(action.state)
            << " left " << action.index_name << " behind";
      }
    }
    // The engine still answers correctly regardless of tuner outcome.
    QueryResult r = MustExec(&monitored_,
                             "SELECT count(*) FROM " + table);
    EXPECT_EQ(r.rows[0][0].AsInt(), 50) << "iter " << iter;
  }
}

}  // namespace
}  // namespace imon::tuner

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      imon::tuner::g_seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--iters=", 0) == 0) {
      imon::tuner::g_iters = std::atoi(arg.c_str() + 8);
    }
  }
  return RUN_ALL_TESTS();
}
