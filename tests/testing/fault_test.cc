// Deterministic fault injection across the storage and daemon layers.
//
// Three layers of proof, all driven by one seed:
//  * FaultInjector itself: seed-deterministic decisions, exact one-shot
//    scheduling, no-op while disarmed.
//  * DiskManager faults: injected read/write failures surface as clean
//    Status through the whole engine (no crash, no lost committed data),
//    and everything recovers after disarming.
//  * StorageDaemon faults: a failed poll counts into poll_errors and
//    leaves the workload DB untouched; a flush killed mid-write leaves
//    no partial append (retry produces no duplicate seq); the monitor's
//    seq integrity holds under concurrent load with faults firing.
//
// Custom main(): `fault_test --seed=N --iters=K`. ctest runs the cases
// with the defaults (seed 42, 40 iterations), and scripts/tier1.sh runs
// them again under -DIMON_SANITIZE=thread.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.h"
#include "engine/database.h"
#include "ima/ima.h"
#include "testing/fault_injector.h"

namespace imon::testing {
namespace {

uint64_t g_seed = 42;
int g_iters = 40;

using engine::Database;
using engine::DatabaseOptions;
using engine::QueryResult;

// ---- FaultInjector unit level -------------------------------------------

TEST(FaultInjectorTest, ProbabilisticDecisionsAreSeedDeterministic) {
  FaultConfig config;
  config.seed = g_seed;
  config.read_fault_prob = 0.3;
  FaultInjector a(config);
  FaultInjector b(config);
  a.Arm();
  b.Arm();
  storage::PageId pid{1, 2};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.BeforeRead(pid).ok(), b.BeforeRead(pid).ok()) << "call " << i;
  }
  auto ca = a.counters();
  EXPECT_EQ(ca.reads_seen, 200);
  EXPECT_GT(ca.read_faults, 0);
  EXPECT_LT(ca.read_faults, 200);
  EXPECT_EQ(ca.read_faults, b.counters().read_faults);

  // Reset() restores the exact decision stream.
  std::vector<bool> before;
  a.Reset();
  for (int i = 0; i < 50; ++i) before.push_back(a.BeforeRead(pid).ok());
  a.Reset();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.BeforeRead(pid).ok(), before[static_cast<size_t>(i)]) << i;
  }
}

TEST(FaultInjectorTest, ScheduledOneShotFiresExactlyOnce) {
  FaultConfig config;
  config.seed = g_seed;
  config.fail_write_at = 3;
  FaultInjector injector(config);
  injector.Arm();
  storage::PageId pid{0, 7};
  EXPECT_TRUE(injector.BeforeWrite(pid).ok());
  EXPECT_TRUE(injector.BeforeWrite(pid).ok());
  Status third = injector.BeforeWrite(pid);
  EXPECT_FALSE(third.ok());
  EXPECT_NE(third.ToString().find("injected"), std::string::npos);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(injector.BeforeWrite(pid).ok());
  EXPECT_EQ(injector.counters().write_faults, 1);
  EXPECT_EQ(injector.counters().writes_seen, 23);
}

TEST(FaultInjectorTest, DisarmedInjectorIsInvisible) {
  FaultConfig config;
  config.seed = g_seed;
  config.read_fault_prob = 1.0;
  config.write_fault_prob = 1.0;
  config.poll_fault_prob = 1.0;
  FaultInjector injector(config);  // never armed
  storage::PageId pid{0, 0};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(injector.BeforeRead(pid).ok());
    EXPECT_TRUE(injector.BeforeWrite(pid).ok());
    EXPECT_TRUE(injector.BeforePoll().ok());
  }
  auto c = injector.counters();
  EXPECT_EQ(c.reads_seen, 0);
  EXPECT_EQ(c.writes_seen, 0);
  EXPECT_EQ(c.polls_seen, 0);
}

// ---- Disk faults through the engine -------------------------------------

class DiskFaultTest : public ::testing::Test {
 protected:
  // A pool far smaller than the data forces physical I/O on every scan,
  // so the hook actually sees traffic (the engine only touches disk on a
  // miss or a dirty eviction).
  DatabaseOptions SmallPoolOptions() {
    DatabaseOptions o;
    o.buffer_pool_pages = 8;
    return o;
  }

  void PopulateWide(Database* db, int rows) {
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, "
                            "pad TEXT)")
                    .ok());
    std::string pad(120, 'x');
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i % 17) + ", '" + pad +
                              "')")
                      .ok());
    }
  }
};

TEST_F(DiskFaultTest, ReadFaultsSurfaceAsStatusAndRecover) {
  Database db(SmallPoolOptions());
  PopulateWide(&db, 600);

  FaultConfig config;
  config.seed = g_seed;
  config.read_fault_prob = 0.05;
  FaultInjector injector(config);
  db.disk()->set_fault_hook(&injector);
  injector.Arm();

  int failed = 0;
  for (int i = 0; i < g_iters; ++i) {
    auto r = db.Execute("SELECT count(*) FROM t WHERE v >= 0");
    if (!r.ok()) {
      ++failed;
      EXPECT_NE(r.status().ToString().find("injected"), std::string::npos)
          << r.status();
      // A failed autocommit statement leaves no lock behind.
      EXPECT_EQ(db.lock_manager()->stats().locks_held, 0);
    }
  }
  EXPECT_GT(injector.counters().reads_seen, 0)
      << "pool too large: scans never reached the disk";
  EXPECT_GT(failed, 0) << "no injected read fault surfaced";
  EXPECT_LT(failed, g_iters) << "every scan failed; fault rate too high";

  // Disarmed, the database answers correctly: nothing was corrupted.
  injector.Disarm();
  auto r = db.Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows[0][0].AsInt(), 600);
  db.disk()->set_fault_hook(nullptr);
}

TEST_F(DiskFaultTest, WriteFaultsNeverLoseCommittedData) {
  Database db(SmallPoolOptions());
  PopulateWide(&db, 600);

  FaultConfig config;
  config.seed = g_seed;
  config.write_fault_prob = 0.05;
  FaultInjector injector(config);
  db.disk()->set_fault_hook(&injector);
  injector.Arm();

  // Inserts dirty the heap tail; the interleaved full scans evict those
  // dirty pages, so the armed hook sees real write-back traffic (inserts
  // alone stay pool-resident in this engine).
  std::string pad(120, 'y');
  int attempts = 300;
  int committed = 0;
  int failed_statements = 0;
  for (int i = 0; i < attempts; ++i) {
    auto r = db.Execute("INSERT INTO t VALUES (" + std::to_string(1000 + i) +
                        ", 1, '" + pad + "')");
    if (r.ok()) {
      ++committed;
    } else {
      ++failed_statements;
      EXPECT_EQ(db.lock_manager()->stats().locks_held, 0);
    }
    if (i % 5 == 4 && !db.Execute("SELECT count(*) FROM t").ok()) {
      ++failed_statements;
      EXPECT_EQ(db.lock_manager()->stats().locks_held, 0);
    }
  }
  injector.Disarm();
  EXPECT_GT(injector.counters().writes_seen, 0)
      << "no write-back ever reached the disk";
  EXPECT_GT(injector.counters().write_faults, 0);
  EXPECT_GT(failed_statements, 0) << "no injected write fault surfaced";
  EXPECT_GT(committed, 0);

  auto r = db.Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(r.ok()) << r.status();
  // Every acknowledged insert is present (a failed eviction write-back
  // keeps the dirty page in the pool — it must never drop rows); a
  // failed statement may at most leave its own row behind.
  EXPECT_GE(r->rows[0][0].AsInt(), 600 + committed);
  EXPECT_LE(r->rows[0][0].AsInt(), 600 + attempts);
  db.disk()->set_fault_hook(nullptr);
}

TEST_F(DiskFaultTest, ScheduledWriteFaultIsReproducible) {
  // The same seed + schedule kills the same statement in two fresh runs.
  // The engine is deterministic, so the 5th physical write lands on the
  // same eviction both times; the interleaved full-table UPDATEs dirty
  // far more pages than the pool holds, forcing write-backs to disk
  // (one-touch scan pages stay in the pool's probationary segment, so
  // the scan-resistant replacer recycles them during the statement).
  std::vector<int> first_failures;
  for (int run = 0; run < 2; ++run) {
    Database db(SmallPoolOptions());
    PopulateWide(&db, 600);
    FaultConfig config;
    config.seed = g_seed;
    config.fail_write_at = 5;
    FaultInjector injector(config);
    db.disk()->set_fault_hook(&injector);
    injector.Arm();
    std::vector<int> failures;  // failed statement indices, inserts + scans
    std::string pad(120, 'z');
    int stmt = 0;
    for (int i = 0; i < 60; ++i) {
      auto r = db.Execute("INSERT INTO t VALUES (" + std::to_string(2000 + i) +
                          ", 2, '" + pad + "')");
      if (!r.ok()) failures.push_back(stmt);
      ++stmt;
      if (i % 5 == 4) {
        if (!db.Execute("UPDATE t SET v = v + 1 WHERE v >= 0").ok()) {
          failures.push_back(stmt);
        }
        ++stmt;
      }
    }
    injector.Disarm();
    EXPECT_EQ(injector.counters().write_faults, 1);
    EXPECT_EQ(failures.size(), 1u) << "one-shot fault fails one statement";
    if (run == 0) {
      first_failures = failures;
    } else {
      EXPECT_EQ(failures, first_failures);
    }
    db.disk()->set_fault_hook(nullptr);
  }
}

// ---- Daemon under faults ------------------------------------------------

class DaemonFaultTest : public ::testing::Test {
 protected:
  DaemonFaultTest()
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
    // Small pool so flush appends reach the disk (and its fault hook):
    // the 7 wl_* tables alone fill more frames than this, forcing dirty
    // evictions during every flush.
    o.buffer_pool_pages = 4;
    return o;
  }
  daemon::DaemonConfig FastConfig() {
    daemon::DaemonConfig c;
    c.poll_interval = std::chrono::milliseconds(5);
    c.polls_per_flush = 2;
    c.retention = std::chrono::seconds(3600);
    c.flushes_per_purge = 1000;  // keep purge out of these tests' way
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

  // All wl_workload seq values; the monitor allocates seq globally, so
  // duplicates mean a partial append was retried (data corruption).
  std::multiset<int64_t> WorkloadSeqs() {
    QueryResult r = MustExec(&workload_db_, "SELECT seq FROM wl_workload");
    std::multiset<int64_t> seqs;
    for (const Row& row : r.rows) seqs.insert(row[0].AsInt());
    return seqs;
  }

  SimulatedClock clock_;
  Database monitored_;
  Database workload_db_;
};

TEST_F(DaemonFaultTest, PollFaultCountsAndRecovers) {
  daemon::StorageDaemon daemon(&monitored_, &workload_db_, FastConfig(),
                               &clock_);
  ASSERT_TRUE(daemon.Initialize().ok());

  FaultConfig config;
  config.seed = g_seed;
  config.fail_poll_at = 2;
  FaultInjector injector(config);
  daemon.set_poll_fault_hook([&] { return injector.BeforePoll(); });
  injector.Arm();

  MustExec(&monitored_, "CREATE TABLE t (v INT)");
  MustExec(&monitored_, "SELECT v FROM t");

  ASSERT_TRUE(daemon.PollOnce().ok());  // cycle 1: buffers
  Status second = daemon.PollOnce();    // cycle 2: injected fault
  EXPECT_FALSE(second.ok());
  EXPECT_NE(second.ToString().find("injected poll fault"), std::string::npos);
  EXPECT_EQ(daemon.stats().poll_errors, 1);
  // The aborted cycle touched nothing: no flush happened.
  EXPECT_EQ(CountRows("wl_workload"), 0);

  // Recovery: the next cycle polls and flushes as if nothing happened.
  ASSERT_TRUE(daemon.PollOnce().ok());
  EXPECT_GE(CountRows("wl_workload"), 2);
  EXPECT_EQ(daemon.stats().poll_errors, 1);
  EXPECT_EQ(daemon.stats().polls, 2);  // faulted cycle does not count

  // Clean-up paths stay healthy after the fault.
  EXPECT_TRUE(daemon.FlushNow().ok());
  EXPECT_TRUE(daemon.PurgeExpired().ok());
}

TEST_F(DaemonFaultTest, FlushKilledMidWriteLeavesNoPartialAppend) {
  daemon::StorageDaemon daemon(&monitored_, &workload_db_, FastConfig(),
                               &clock_);
  ASSERT_TRUE(daemon.Initialize().ok());

  MustExec(&monitored_, "CREATE TABLE t (v INT)");
  for (int i = 0; i < 30; ++i) {
    MustExec(&monitored_, "SELECT v FROM t WHERE v = " + std::to_string(i));
  }

  FaultConfig config;
  config.seed = g_seed;
  config.fail_write_at = 1;  // kill the first physical write of the flush
  FaultInjector injector(config);
  workload_db_.disk()->set_fault_hook(&injector);

  ASSERT_TRUE(daemon.PollOnce().ok());  // cycle 1: buffers only
  injector.Arm();
  Status flushing_poll = daemon.PollOnce();  // cycle 2: flush hits the fault
  EXPECT_FALSE(flushing_poll.ok()) << "flush should have hit the disk";
  EXPECT_EQ(daemon.stats().poll_errors, 1);
  injector.Disarm();
  EXPECT_EQ(injector.counters().write_faults, 1);

  // Retry: buffered rows land exactly once.
  ASSERT_TRUE(daemon.FlushNow().ok());
  std::multiset<int64_t> seqs = WorkloadSeqs();
  EXPECT_GE(seqs.size(), 31u);
  std::set<int64_t> unique(seqs.begin(), seqs.end());
  EXPECT_EQ(unique.size(), seqs.size()) << "duplicate seq: partial append";

  // A second flush has nothing left to write.
  ASSERT_TRUE(daemon.FlushNow().ok());
  EXPECT_EQ(WorkloadSeqs().size(), seqs.size());
  workload_db_.disk()->set_fault_hook(nullptr);
}

TEST_F(DaemonFaultTest, SeqIntegrityHoldsUnderConcurrentFaultyPolling) {
  daemon::StorageDaemon daemon(&monitored_, &workload_db_, FastConfig(),
                               &clock_);
  ASSERT_TRUE(daemon.Initialize().ok());

  FaultConfig config;
  config.seed = g_seed;
  config.poll_fault_prob = 0.3;
  FaultInjector injector(config);
  daemon.set_poll_fault_hook([&] { return injector.BeforePoll(); });
  injector.Arm();

  MustExec(&monitored_, "CREATE TABLE t (v INT)");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        monitored_
            .Execute("SELECT v FROM t WHERE v = " +
                     std::to_string(t * 1000 + i))
            .ok();
      }
    });
  }
  // Poll concurrently with the workload; some cycles fault, the rest
  // advance the cursors.
  for (int i = 0; i < 20; ++i) daemon.PollOnce().ok();
  for (auto& w : workers) w.join();
  injector.Disarm();

  // Drain: two clean polls guarantee a flush, then flush the remainder.
  ASSERT_TRUE(daemon.PollOnce().ok());
  ASSERT_TRUE(daemon.PollOnce().ok());
  ASSERT_TRUE(daemon.FlushNow().ok());

  std::multiset<int64_t> seqs = WorkloadSeqs();
  EXPECT_GE(seqs.size(), static_cast<size_t>(kThreads * kPerThread));
  std::set<int64_t> unique(seqs.begin(), seqs.end());
  EXPECT_EQ(unique.size(), seqs.size())
      << "duplicate seq under faulty concurrent polling";
  EXPECT_GT(daemon.stats().poll_errors, 0) << "no fault ever fired";
}

}  // namespace
}  // namespace imon::testing

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      imon::testing::g_seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--iters=", 0) == 0) {
      imon::testing::g_iters = std::atoi(arg.c_str() + 8);
    }
  }
  return RUN_ALL_TESTS();
}
