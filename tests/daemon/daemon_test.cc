#include "daemon/daemon.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ima/ima.h"
#include "testing/fault_injector.h"

namespace imon::daemon {
namespace {

using engine::Database;
using engine::DatabaseOptions;
using engine::QueryResult;

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest()
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
    o.monitor.enabled = false;  // the workload DB itself is not monitored
    o.clock = &clock_;
    return o;
  }

  DaemonConfig FastConfig() {
    DaemonConfig c;
    c.poll_interval = std::chrono::milliseconds(5);
    c.polls_per_flush = 2;
    c.retention = std::chrono::seconds(3600);
    c.flushes_per_purge = 1;
    return c;
  }

  QueryResult MustExec(Database* db, const std::string& sql) {
    auto r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? r.TakeValue() : QueryResult{};
  }

  int64_t CountRows(const std::string& table) {
    QueryResult r = MustExec(&workload_db_, "SELECT count(*) FROM " + table);
    return r.rows[0][0].AsInt();
  }

  SimulatedClock clock_;
  Database monitored_;
  Database workload_db_;
};

TEST_F(DaemonTest, SchemaCreationIsIdempotent) {
  ASSERT_TRUE(CreateWorkloadSchema(&workload_db_).ok());
  ASSERT_TRUE(CreateWorkloadSchema(&workload_db_).ok());
  EXPECT_TRUE(workload_db_.catalog()->HasTable("wl_workload"));
  EXPECT_TRUE(workload_db_.catalog()->HasTable("wl_statistics"));
}

// Each wl_* table is captured_at followed by its IMA table's columns, in
// order and with the same types; wl_templates then ends in the daemon's
// five src_* resume columns.
TEST_F(DaemonTest, WorkloadSchemaMirrorsImaTables) {
  ASSERT_TRUE(CreateWorkloadSchema(&workload_db_).ok());
  ASSERT_TRUE(CreateWorkloadSchema(&workload_db_).ok());
  const std::string mirrored[] = {
      "imp_statements", "imp_workload", "imp_references",
      "imp_tables", "imp_attributes", "imp_indexes",
      "imp_statistics", "imp_metrics_history", "imp_templates"};
  EXPECT_EQ(workload_db_.catalog()->ListTables().size(), std::size(mirrored));
  using Columns = std::vector<std::pair<std::string, TypeId>>;
  for (const std::string& ima_table : mirrored) {
    const std::string wl_table = "wl_" + ima_table.substr(4);
    SCOPED_TRACE(wl_table);
    auto provider = monitored_.catalog()->GetVirtualTable(ima_table);
    ASSERT_NE(provider, nullptr);
    Columns expected = {{"captured_at", TypeId::kInt}};
    for (const catalog::ColumnInfo& c : provider->Schema()) {
      expected.emplace_back(c.name, c.type);
    }
    if (ima_table == "imp_templates") {
      Columns resume = {{"src_id", TypeId::kInt},
                        {"src_executions", TypeId::kInt},
                        {"src_sampled", TypeId::kInt},
                        {"src_actual", TypeId::kDouble},
                        {"src_estimated", TypeId::kDouble}};
      expected.insert(expected.end(), resume.begin(), resume.end());
    }
    auto table = workload_db_.catalog()->GetTable(wl_table);
    ASSERT_TRUE(table.ok()) << table.status();
    Columns actual;
    for (const catalog::ColumnInfo& c : table->columns) {
      actual.emplace_back(c.name, c.type);
    }
    EXPECT_EQ(actual, expected);
  }
}

TEST_F(DaemonTest, AlertsTableColumnsArePinned) {
  StorageDaemon daemon(&monitored_, &workload_db_, FastConfig(), &clock_);
  ASSERT_TRUE(RegisterAlertsTable(&monitored_, &daemon).ok());
  auto provider = monitored_.catalog()->GetVirtualTable("imp_alerts");
  ASSERT_NE(provider, nullptr);
  using enum TypeId;
  const std::vector<std::pair<std::string, TypeId>> expected = {
      {"rule", kText}, {"series", kText}, {"state", kText}, {"value", kInt},
      {"threshold", kInt}, {"breach_polls", kInt}, {"fire_count", kInt},
      {"first_fired_micros", kInt}, {"last_fired_micros", kInt},
      {"last_eval_micros", kInt}, {"message", kText}};
  std::vector<std::pair<std::string, TypeId>> actual;
  for (const catalog::ColumnInfo& c : provider->Schema()) {
    actual.emplace_back(c.name, c.type);
  }
  EXPECT_EQ(actual, expected);
}

TEST_F(DaemonTest, PollAndFlushPersistWorkload) {
  StorageDaemon daemon(&monitored_, &workload_db_, FastConfig(), &clock_);
  ASSERT_TRUE(daemon.Initialize().ok());

  MustExec(&monitored_, "CREATE TABLE t (v INT)");
  MustExec(&monitored_, "INSERT INTO t VALUES (1)");
  MustExec(&monitored_, "SELECT v FROM t WHERE v = 1");

  ASSERT_TRUE(daemon.PollOnce().ok());  // buffers, no flush yet
  EXPECT_EQ(CountRows("wl_workload"), 0);
  ASSERT_TRUE(daemon.PollOnce().ok());  // second poll triggers flush
  EXPECT_GE(CountRows("wl_workload"), 3);
  EXPECT_GE(CountRows("wl_statements"), 3);
  EXPECT_GE(CountRows("wl_statistics"), 2);  // one sample per poll
  EXPECT_GE(CountRows("wl_tables"), 1);

  auto stats = daemon.stats();
  EXPECT_EQ(stats.polls, 2);
  EXPECT_EQ(stats.flushes, 1);
  EXPECT_GT(stats.rows_written, 0);
  EXPECT_GT(stats.bytes_written_estimate, 0);
}

TEST_F(DaemonTest, IncrementalReadsDoNotDuplicate) {
  StorageDaemon daemon(&monitored_, &workload_db_, FastConfig(), &clock_);
  ASSERT_TRUE(daemon.Initialize().ok());

  MustExec(&monitored_, "CREATE TABLE t (v INT)");
  MustExec(&monitored_, "SELECT v FROM t");
  ASSERT_TRUE(daemon.PollOnce().ok());
  ASSERT_TRUE(daemon.PollOnce().ok());
  int64_t after_first = CountRows("wl_workload");

  // No new statements: two more polls add no workload rows.
  ASSERT_TRUE(daemon.PollOnce().ok());
  ASSERT_TRUE(daemon.PollOnce().ok());
  EXPECT_EQ(CountRows("wl_workload"), after_first);

  MustExec(&monitored_, "SELECT v FROM t WHERE v = 9");
  ASSERT_TRUE(daemon.PollOnce().ok());
  ASSERT_TRUE(daemon.PollOnce().ok());
  EXPECT_EQ(CountRows("wl_workload"), after_first + 1);
}

TEST_F(DaemonTest, DaemonPollingIsNotSelfObserved) {
  StorageDaemon daemon(&monitored_, &workload_db_, FastConfig(), &clock_);
  ASSERT_TRUE(daemon.Initialize().ok());
  MustExec(&monitored_, "CREATE TABLE t (v INT)");
  MustExec(&monitored_, "SELECT v FROM t");
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(daemon.PollOnce().ok());
  // The daemon's own IMA SELECTs must not appear in the statement history.
  for (const auto& s : monitored_.monitor()->SnapshotStatements()) {
    EXPECT_EQ(s.text.find("imp_"), std::string::npos) << s.text;
  }
}

TEST_F(DaemonTest, RetentionPurgesOldRows) {
  DaemonConfig config = FastConfig();
  config.retention = std::chrono::seconds(100);
  StorageDaemon daemon(&monitored_, &workload_db_, config, &clock_);
  ASSERT_TRUE(daemon.Initialize().ok());

  MustExec(&monitored_, "CREATE TABLE t (v INT)");
  MustExec(&monitored_, "SELECT v FROM t");
  ASSERT_TRUE(daemon.PollOnce().ok());
  ASSERT_TRUE(daemon.PollOnce().ok());
  int64_t persisted = CountRows("wl_workload");
  ASSERT_GE(persisted, 1);

  // Advance past retention; next flush purges everything old.
  clock_.AdvanceSeconds(200);
  ASSERT_TRUE(daemon.PurgeExpired().ok());
  EXPECT_EQ(CountRows("wl_workload"), 0);
  EXPECT_EQ(CountRows("wl_statistics"), 0);
  EXPECT_GT(daemon.stats().rows_purged, 0);
}

TEST_F(DaemonTest, BytesWrittenAndAlertsMirrorIntoMetricsRegistry) {
  StorageDaemon daemon(&monitored_, &workload_db_, FastConfig(), &clock_);
  ASSERT_TRUE(daemon.Initialize().ok());
  ASSERT_TRUE(daemon
                  .AddAlertRule("any_statement", "wl_statements",
                                "frequency >= 1", "statement persisted")
                  .ok());
  daemon.SetAlertHandler([](const engine::AlertEvent&) {});

  MustExec(&monitored_, "CREATE TABLE t (v INT)");
  MustExec(&monitored_, "SELECT v FROM t");
  ASSERT_TRUE(daemon.PollOnce().ok());
  ASSERT_TRUE(daemon.PollOnce().ok());  // flush -> appends + alerts

  auto stats = daemon.stats();
  ASSERT_GT(stats.bytes_written_estimate, 0);
  ASSERT_GE(stats.alerts_raised, 1);

  // DaemonStats and the imp_metrics registry must agree.
  int64_t bytes_metric = -1;
  int64_t alerts_metric = -1;
  auto r = monitored_.Execute("SELECT name, value FROM imp_metrics");
  ASSERT_TRUE(r.ok());
  for (const Row& row : r->rows) {
    if (row[0].AsText() == "daemon.bytes_written") {
      bytes_metric = row[1].AsInt();
    } else if (row[0].AsText() == "daemon.alerts_raised") {
      alerts_metric = row[1].AsInt();
    }
  }
#ifdef IMON_METRICS_DISABLED
  // Compiled out, the registry's counters are no-ops and read 0, while
  // DaemonStats (asserted above) still counts.
  EXPECT_EQ(bytes_metric, 0);
  EXPECT_EQ(alerts_metric, 0);
#else
  EXPECT_EQ(bytes_metric, stats.bytes_written_estimate);
  EXPECT_EQ(alerts_metric, stats.alerts_raised);
#endif
}

TEST_F(DaemonTest, RetentionBoundaryIsInclusiveAtExactlySevenDays) {
  // The paper keeps entries "for seven days"; a row aged exactly the
  // retention window is expired, one tick younger survives.
  DaemonConfig config = FastConfig();
  config.retention = std::chrono::seconds(7 * 24 * 3600);
  StorageDaemon daemon(&monitored_, &workload_db_, config, &clock_);
  ASSERT_TRUE(daemon.Initialize().ok());

  clock_.AdvanceSeconds(8 * 24 * 3600);  // so 7-days-ago is a valid stamp
  int64_t retention_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(config.retention)
          .count();
  int64_t now = clock_.NowMicros();
  int64_t boundary = now - retention_micros;  // stamped precisely 7d ago
  MustExec(&workload_db_,
           "INSERT INTO wl_statements VALUES (" + std::to_string(boundary) +
               ", 1, 'boundary', 1, 0, 0, 0)");
  MustExec(&workload_db_,
           "INSERT INTO wl_statements VALUES (" +
               std::to_string(boundary + 1) + ", 2, 'survivor', 1, 0, 0, 0)");
  ASSERT_EQ(CountRows("wl_statements"), 2);

  ASSERT_TRUE(daemon.PurgeExpired().ok());
  EXPECT_EQ(CountRows("wl_statements"), 1)
      << "exactly-retention-old row must purge, one microsecond newer "
         "must survive";
  QueryResult r = MustExec(&workload_db_,
                           "SELECT query_text FROM wl_statements");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "survivor");
  EXPECT_EQ(daemon.stats().rows_purged, 1);
}

TEST_F(DaemonTest, TemplatesOutliveRetentionPurgeAcrossDaemonRestart) {
  // Compressed workload history must survive the raw-row retention purge,
  // and a daemon restarted between a purge and the next flush must not
  // double-count what its predecessor already persisted.
  DaemonConfig config = FastConfig();
  config.retention = std::chrono::seconds(100);

  auto template_executions = [&]() -> int64_t {
    QueryResult r = MustExec(
        &workload_db_, "SELECT template_text, executions FROM wl_templates");
    for (const Row& row : r.rows) {
      if (row[0].AsText().find("where v =") != std::string::npos) {
        return row[1].AsInt();
      }
    }
    return -1;
  };

  MustExec(&monitored_, "CREATE TABLE t (v INT)");
  {
    StorageDaemon daemon(&monitored_, &workload_db_, config, &clock_);
    ASSERT_TRUE(daemon.Initialize().ok());
    // Five literal variants collapse into one template.
    for (int i = 1; i <= 5; ++i) {
      MustExec(&monitored_, "SELECT v FROM t WHERE v = " + std::to_string(i));
    }
    ASSERT_TRUE(daemon.PollOnce().ok());
    ASSERT_TRUE(daemon.PollOnce().ok());  // flush
    ASSERT_EQ(template_executions(), 5);
    ASSERT_GE(CountRows("wl_statements"), 1);

    clock_.AdvanceSeconds(200);
    ASSERT_TRUE(daemon.PurgeExpired().ok());
    EXPECT_EQ(CountRows("wl_statements"), 0);
    EXPECT_EQ(CountRows("wl_workload"), 0);
    // Raw rows are gone; the compressed history is retention-exempt.
    EXPECT_EQ(template_executions(), 5);
  }  // daemon gone: restart lands between the purge and the next flush

  {
    StorageDaemon daemon(&monitored_, &workload_db_, config, &clock_);
    ASSERT_TRUE(daemon.Initialize().ok());
    for (int i = 6; i <= 8; ++i) {
      MustExec(&monitored_, "SELECT v FROM t WHERE v = " + std::to_string(i));
    }
    ASSERT_TRUE(daemon.PollOnce().ok());
    ASSERT_TRUE(daemon.PollOnce().ok());
    // Same monitor incarnation: the new daemon resumes its flush deltas
    // from the persisted src_* baseline. Re-adding the monitor's full
    // cumulative count would report 13 here.
    EXPECT_EQ(template_executions(), 8);
  }

  // Full restart: a fresh monitored engine means a new monitor
  // incarnation whose counts start over; they accumulate onto the
  // persisted base instead of resuming a stale baseline.
  Database monitored2(MonitoredOptions());
  ASSERT_TRUE(ima::RegisterImaTables(&monitored2).ok());
  MustExec(&monitored2, "CREATE TABLE t (v INT)");
  {
    StorageDaemon daemon(&monitored2, &workload_db_, config, &clock_);
    ASSERT_TRUE(daemon.Initialize().ok());
    MustExec(&monitored2, "SELECT v FROM t WHERE v = 9");
    MustExec(&monitored2, "SELECT v FROM t WHERE v = 10");
    ASSERT_TRUE(daemon.PollOnce().ok());
    ASSERT_TRUE(daemon.PollOnce().ok());
    EXPECT_EQ(template_executions(), 10);
  }
}

TEST_F(DaemonTest, AlertRulesFireOnThreshold) {
  StorageDaemon daemon(&monitored_, &workload_db_, FastConfig(), &clock_);
  ASSERT_TRUE(daemon.Initialize().ok());
  ASSERT_TRUE(daemon
                  .AddAlertRule("deadlock_alert", "wl_statistics",
                                "deadlocks >= 1",
                                "deadlocks observed on the system's locks")
                  .ok());
  std::vector<engine::AlertEvent> alerts;
  daemon.SetAlertHandler(
      [&](const engine::AlertEvent& e) { alerts.push_back(e); });

  // Produce a deadlock on the monitored engine.
  MustExec(&monitored_, "CREATE TABLE x (v INT)");
  MustExec(&monitored_, "CREATE TABLE y (v INT)");
  MustExec(&monitored_, "INSERT INTO x VALUES (1)");
  MustExec(&monitored_, "INSERT INTO y VALUES (1)");
  auto s1 = monitored_.CreateSession();
  auto s2 = monitored_.CreateSession();
  ASSERT_TRUE(monitored_.Execute("BEGIN", s1.get()).ok());
  ASSERT_TRUE(monitored_.Execute("BEGIN", s2.get()).ok());
  ASSERT_TRUE(monitored_.Execute("UPDATE x SET v = 2", s1.get()).ok());
  ASSERT_TRUE(monitored_.Execute("UPDATE y SET v = 2", s2.get()).ok());
  std::thread t([&] {
    monitored_.Execute("UPDATE y SET v = 3", s1.get()).ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  monitored_.Execute("UPDATE x SET v = 3", s2.get()).ok();
  t.join();
  monitored_.Execute("COMMIT", s1.get()).ok();
  monitored_.Execute("COMMIT", s2.get()).ok();

  ASSERT_TRUE(daemon.PollOnce().ok());
  ASSERT_TRUE(daemon.PollOnce().ok());
  ASSERT_GE(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].trigger_name, "deadlock_alert");
  // The message reaches the handler as given, its quote escaped on the
  // way into the trigger.
  EXPECT_EQ(alerts[0].message, "deadlocks observed on the system's locks");
  EXPECT_GE(daemon.stats().alerts_raised, 1);
}

#ifndef IMON_METRICS_DISABLED

// History alert rules fire after `sustain_polls` breaching evaluations
// and clear on the first clean one — and a poll killed by the fault
// injector merely delays that progression, it never corrupts it. Two
// identical runs (same seed, same simulated clock) must produce
// bit-identical alert state, handler events, and counters.
TEST_F(DaemonTest, HistoryAlertsFireAndClearDeterministicallyUnderPollFaults) {
  struct Outcome {
    std::vector<HistoryAlertState> after_fire;
    std::vector<HistoryAlertState> after_clear;
    std::vector<std::string> events;
    int64_t alerts_raised = 0;
    int64_t poll_errors = 0;
  };

  auto run = [](Outcome* out) {
    SimulatedClock clock(1000000000);
    DatabaseOptions mo;
    mo.name = "monitored";
    mo.clock = &clock;
    Database monitored(mo);
    ASSERT_TRUE(ima::RegisterImaTables(&monitored).ok());
    DatabaseOptions wo;
    wo.name = "workload";
    wo.monitor.enabled = false;
    wo.clock = &clock;
    Database workload(wo);
    StorageDaemon daemon(&monitored, &workload, DaemonConfig{}, &clock);
    ASSERT_TRUE(daemon.Initialize().ok());
    ASSERT_TRUE(RegisterAlertsTable(&monitored, &daemon).ok());

    HistoryAlertRule rule;
    rule.name = "pressure_high";
    rule.series = "test.pressure";
    rule.kind = HistoryAlertRule::Kind::kThreshold;
    rule.cmp = HistoryAlertRule::Cmp::kAbove;
    rule.limit = 100;
    rule.window_seconds = 60;
    rule.sustain_polls = 2;
    rule.message = "pressure above 100";
    daemon.AddHistoryAlertRule(rule);
    daemon.SetAlertHandler([out](const engine::AlertEvent& e) {
      out->events.push_back(e.trigger_name + "|" + e.table + "|" + e.message);
    });

    // Kill exactly the 3rd poll — right in the middle of the breach
    // streak — so one evaluation is simply lost.
    testing::FaultConfig fault;
    fault.fail_poll_at = 3;
    testing::FaultInjector injector(fault);
    injector.Arm();
    daemon.set_poll_fault_hook([&] { return injector.BeforePoll(); });

    metrics::Gauge* pressure = monitored.metrics()->GetGauge("test.pressure");

    pressure->Set(50);
    ASSERT_TRUE(daemon.PollOnce().ok());  // clean: no breach
    clock.AdvanceSeconds(10);

    pressure->Set(500);
    ASSERT_TRUE(daemon.PollOnce().ok());  // breach 1 of 2: not firing yet
    EXPECT_FALSE(daemon.SnapshotAlerts()[0].firing);
    clock.AdvanceSeconds(10);

    EXPECT_FALSE(daemon.PollOnce().ok());  // faulted: evaluation skipped
    EXPECT_FALSE(daemon.SnapshotAlerts()[0].firing);
    clock.AdvanceSeconds(10);

    ASSERT_TRUE(daemon.PollOnce().ok());  // breach 2 of 2: fires
    out->after_fire = daemon.SnapshotAlerts();
    clock.AdvanceSeconds(10);

    ASSERT_TRUE(daemon.PollOnce().ok());  // still breaching: one event only
    clock.AdvanceSeconds(10);

    pressure->Set(50);
    ASSERT_TRUE(daemon.PollOnce().ok());  // clean sample: clears
    out->after_clear = daemon.SnapshotAlerts();

    // The firing state is queryable while hot, via the IMA table.
    QueryResult r = [&] {
      auto res = monitored.Execute(
          "SELECT rule, state, fire_count, value, threshold "
          "FROM imp_alerts");
      EXPECT_TRUE(res.ok()) << res.status();
      return res.ok() ? res.TakeValue() : QueryResult{};
    }();
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].AsText(), "pressure_high");
    EXPECT_EQ(r.rows[0][1].AsText(), "clear");  // cleared by now
    EXPECT_EQ(r.rows[0][2].AsInt(), 1);
    EXPECT_EQ(r.rows[0][3].AsInt(), 50);
    EXPECT_EQ(r.rows[0][4].AsInt(), 100);

    out->alerts_raised = daemon.stats().alerts_raised;
    out->poll_errors = daemon.stats().poll_errors;
  };

  Outcome a, b;
  run(&a);
  run(&b);

  ASSERT_EQ(a.after_fire.size(), 1u);
  EXPECT_TRUE(a.after_fire[0].firing);
  EXPECT_EQ(a.after_fire[0].fire_count, 1);
  EXPECT_EQ(a.after_fire[0].breach_polls, 2);
  EXPECT_EQ(a.after_fire[0].value, 500);
  ASSERT_EQ(a.after_clear.size(), 1u);
  EXPECT_FALSE(a.after_clear[0].firing);
  EXPECT_EQ(a.after_clear[0].fire_count, 1);
  EXPECT_EQ(a.after_clear[0].breach_polls, 0);
  EXPECT_EQ(a.after_clear[0].value, 50);
  ASSERT_EQ(a.events.size(), 1u);
  EXPECT_EQ(a.events[0],
            "pressure_high|imp_metrics_history|pressure above 100");
  EXPECT_EQ(a.alerts_raised, 1);
  EXPECT_EQ(a.poll_errors, 1);

  // Determinism: the delayed run replays to identical state.
  auto same = [](const HistoryAlertState& x, const HistoryAlertState& y) {
    return x.rule == y.rule && x.firing == y.firing && x.value == y.value &&
           x.breach_polls == y.breach_polls && x.fire_count == y.fire_count &&
           x.first_fired_micros == y.first_fired_micros &&
           x.last_fired_micros == y.last_fired_micros &&
           x.last_eval_micros == y.last_eval_micros;
  };
  EXPECT_TRUE(same(a.after_fire[0], b.after_fire[0]));
  EXPECT_TRUE(same(a.after_clear[0], b.after_clear[0]));
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.alerts_raised, b.alerts_raised);
  EXPECT_EQ(a.poll_errors, b.poll_errors);
}

#endif  // IMON_METRICS_DISABLED

TEST_F(DaemonTest, BackgroundThreadPollsAndStops) {
  // The background thread uses real waiting; keep the interval tiny.
  StorageDaemon daemon(&monitored_, &workload_db_, FastConfig(), &clock_);
  ASSERT_TRUE(daemon.Initialize().ok());
  MustExec(&monitored_, "CREATE TABLE t (v INT)");
  MustExec(&monitored_, "SELECT v FROM t");
  daemon.Start();
  EXPECT_TRUE(daemon.running());
  // Wait for at least one flush.
  for (int i = 0; i < 200 && daemon.stats().flushes == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  daemon.Stop();
  EXPECT_FALSE(daemon.running());
  EXPECT_GE(daemon.stats().polls, 1);
  EXPECT_GE(CountRows("wl_workload"), 1);
}

}  // namespace
}  // namespace imon::daemon
