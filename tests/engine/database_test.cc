#include "engine/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "exec/expr_program.h"
#include "exec/worker_pool.h"
#include "ima/ima.h"
#include "sql/normalizer.h"

namespace imon::engine {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_(DatabaseOptions{}) {}

  QueryResult MustExec(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? r.TakeValue() : QueryResult{};
  }

  void MakeProtein() {
    MustExec(
        "CREATE TABLE protein (nref_id INT PRIMARY KEY, sequence TEXT, "
        "seq_length INT, mol_weight DOUBLE)");
  }

  Database db_;
};

TEST_F(DatabaseTest, CreateInsertSelect) {
  MakeProtein();
  MustExec(
      "INSERT INTO protein VALUES (1, 'MKV', 3, 389.5), (2, 'AACD', 4, "
      "420.1)");
  QueryResult r = MustExec("SELECT nref_id, sequence FROM protein "
                           "WHERE nref_id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[0][1].AsText(), "AACD");
}

TEST_F(DatabaseTest, SelectStar) {
  MakeProtein();
  MustExec("INSERT INTO protein VALUES (1, 'MKV', 3, 1.0)");
  QueryResult r = MustExec("SELECT * FROM protein");
  ASSERT_EQ(r.columns.size(), 4u);
  EXPECT_EQ(r.columns[0], "nref_id");
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(DatabaseTest, PrimaryKeyEnforcedViaPkeyIndex) {
  MakeProtein();
  MustExec("INSERT INTO protein VALUES (1, 'A', 1, 1.0)");
  auto dup = db_.Execute("INSERT INTO protein VALUES (1, 'B', 1, 1.0)");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  // Failed statement rolled back: still exactly one row.
  QueryResult r = MustExec("SELECT count(*) FROM protein");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST_F(DatabaseTest, PointQueryUsesPkeyIndex) {
  MakeProtein();
  for (int i = 0; i < 5000; ++i) {
    MustExec("INSERT INTO protein VALUES (" + std::to_string(i) +
             ", 'S', 1, 1.0)");
  }
  QueryResult r =
      MustExec("EXPLAIN SELECT nref_id FROM protein WHERE nref_id = 123");
  EXPECT_NE(r.stats.plan_text.find("protein_pkey"), std::string::npos)
      << r.stats.plan_text;
}

TEST_F(DatabaseTest, JoinsTwoTables) {
  MakeProtein();
  MustExec("CREATE TABLE organism (nref_id INT, ordinal INT, name TEXT)");
  MustExec("INSERT INTO protein VALUES (1, 'A', 1, 1.0), (2, 'B', 1, 1.0)");
  MustExec("INSERT INTO organism VALUES (1, 0, 'e.coli'), "
           "(1, 1, 'h.sapiens'), (2, 0, 'yeast')");
  QueryResult r = MustExec(
      "SELECT p.nref_id, o.name FROM protein p JOIN organism o ON "
      "p.nref_id = o.nref_id WHERE p.nref_id = 1 ORDER BY o.ordinal");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsText(), "e.coli");
  EXPECT_EQ(r.rows[1][1].AsText(), "h.sapiens");
}

TEST_F(DatabaseTest, ThreeWayJoinWithAggregates) {
  MustExec("CREATE TABLE a (id INT, v INT)");
  MustExec("CREATE TABLE b (id INT, a_id INT)");
  MustExec("CREATE TABLE c (id INT, b_id INT, w DOUBLE)");
  for (int i = 0; i < 20; ++i) {
    MustExec("INSERT INTO a VALUES (" + std::to_string(i) + ", " +
             std::to_string(i * 10) + ")");
    MustExec("INSERT INTO b VALUES (" + std::to_string(i) + ", " +
             std::to_string(i % 5) + ")");
    MustExec("INSERT INTO c VALUES (" + std::to_string(i) + ", " +
             std::to_string(i % 7) + ", 1.5)");
  }
  QueryResult r = MustExec(
      "SELECT a.id, count(*), sum(c.w) FROM a JOIN b ON a.id = b.a_id "
      "JOIN c ON b.id = c.b_id GROUP BY a.id ORDER BY a.id");
  ASSERT_GT(r.rows.size(), 0u);
  // Every b row has a_id in [0,5), each joining c rows with b_id=b.id%7.
  EXPECT_LE(r.rows.size(), 5u);
}

TEST_F(DatabaseTest, UpdateAndDelete) {
  MakeProtein();
  MustExec("INSERT INTO protein VALUES (1, 'A', 1, 1.0), (2, 'B', 2, 2.0), "
           "(3, 'C', 3, 3.0)");
  QueryResult u =
      MustExec("UPDATE protein SET seq_length = 99 WHERE nref_id > 1");
  EXPECT_EQ(u.affected_rows, 2);
  QueryResult r =
      MustExec("SELECT count(*) FROM protein WHERE seq_length = 99");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  QueryResult d = MustExec("DELETE FROM protein WHERE nref_id = 2");
  EXPECT_EQ(d.affected_rows, 1);
  r = MustExec("SELECT count(*) FROM protein");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(DatabaseTest, GroupByHavingLimit) {
  MustExec("CREATE TABLE t (k INT, v INT)");
  for (int i = 0; i < 30; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i % 3) + ", " +
             std::to_string(i) + ")");
  }
  QueryResult r = MustExec(
      "SELECT k, count(*) AS n, avg(v) FROM t GROUP BY k "
      "HAVING count(*) >= 10 ORDER BY k DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[0][1].AsInt(), 10);
}

TEST_F(DatabaseTest, DistinctAndBetweenAndLike) {
  MustExec("CREATE TABLE t (v INT, s TEXT)");
  MustExec("INSERT INTO t VALUES (1, 'apple'), (1, 'apple'), (2, 'banana'), "
           "(3, 'apricot')");
  QueryResult r = MustExec("SELECT DISTINCT v FROM t ORDER BY v");
  EXPECT_EQ(r.rows.size(), 3u);
  r = MustExec("SELECT count(*) FROM t WHERE v BETWEEN 2 AND 3");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  r = MustExec("SELECT count(*) FROM t WHERE s LIKE 'ap%'");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
}

TEST_F(DatabaseTest, NullSemantics) {
  MustExec("CREATE TABLE t (v INT, s TEXT)");
  MustExec("INSERT INTO t (v) VALUES (1)");
  MustExec("INSERT INTO t VALUES (2, 'x')");
  QueryResult r = MustExec("SELECT count(*) FROM t WHERE s IS NULL");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  // NULL never equals anything.
  r = MustExec("SELECT count(*) FROM t WHERE s = 'x' OR s <> 'x'");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  // count(s) skips NULLs.
  r = MustExec("SELECT count(s) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST_F(DatabaseTest, NotNullConstraint) {
  MustExec("CREATE TABLE t (a INT NOT NULL, b INT)");
  EXPECT_FALSE(db_.Execute("INSERT INTO t (b) VALUES (1)").ok());
  MustExec("INSERT INTO t VALUES (1, NULL)");
}

TEST_F(DatabaseTest, ModifyToBtreeRemovesOverflow) {
  MustExec("CREATE TABLE big (id INT PRIMARY KEY, payload TEXT) "
           "WITH MAIN_PAGES = 2");
  for (int i = 0; i < 2000; ++i) {
    MustExec("INSERT INTO big VALUES (" + std::to_string(i) + ", '" +
             std::string(50, 'x') + "')");
  }
  MustExec("ANALYZE big");
  auto before = db_.catalog()->GetTable("big");
  ASSERT_TRUE(before.ok());
  EXPECT_GT(before->overflow_pages, 0);
  MustExec("MODIFY big TO BTREE");
  auto after = db_.catalog()->GetTable("big");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->structure, catalog::StorageStructure::kBtree);
  EXPECT_EQ(after->overflow_pages, 0);
  EXPECT_EQ(after->row_count, 2000);
  // Data survives restructure + secondary indexes still work.
  QueryResult r = MustExec("SELECT count(*) FROM big WHERE id < 100");
  EXPECT_EQ(r.rows[0][0].AsInt(), 100);
}

TEST_F(DatabaseTest, ModifyToHashEnablesPointLookups) {
  MustExec("CREATE TABLE kv (id INT PRIMARY KEY, payload TEXT) "
           "WITH MAIN_PAGES = 16");
  for (int i = 0; i < 3000; ++i) {
    MustExec("INSERT INTO kv VALUES (" + std::to_string(i) + ", 'p" +
             std::to_string(i) + "')");
  }
  MustExec("MODIFY kv TO HASH");
  auto info = db_.catalog()->GetTable("kv");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->structure, catalog::StorageStructure::kHash);
  MustExec("ANALYZE kv");

  // Point query plans a hash bucket probe.
  QueryResult plan = MustExec("EXPLAIN SELECT payload FROM kv WHERE id = 77");
  EXPECT_NE(plan.stats.plan_text.find("HashLookup"), std::string::npos)
      << plan.stats.plan_text;
  QueryResult r = MustExec("SELECT payload FROM kv WHERE id = 77");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "p77");

  // Range queries cannot use the hash structure.
  plan = MustExec("EXPLAIN SELECT payload FROM kv WHERE id < 10");
  EXPECT_EQ(plan.stats.plan_text.find("HashLookup"), std::string::npos);
  r = MustExec("SELECT count(*) FROM kv WHERE id < 10");
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);

  // DML still works on the hash structure.
  MustExec("UPDATE kv SET payload = 'updated' WHERE id = 5");
  r = MustExec("SELECT payload FROM kv WHERE id = 5");
  EXPECT_EQ(r.rows[0][0].AsText(), "updated");
  MustExec("DELETE FROM kv WHERE id = 5");
  r = MustExec("SELECT count(*) FROM kv");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2999);
  // Duplicate PKs rejected by the hash structure itself.
  auto dup = db_.Execute("INSERT INTO kv VALUES (77, 'dup')");
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(DatabaseTest, ModifyToIsamRoutesRangeQueries) {
  MustExec("CREATE TABLE ts (id INT PRIMARY KEY, v TEXT)");
  for (int i = 0; i < 3000; ++i) {
    MustExec("INSERT INTO ts VALUES (" + std::to_string(i) + ", 'v" +
             std::to_string(i) + "')");
  }
  MustExec("MODIFY ts TO ISAM");
  auto info = db_.catalog()->GetTable("ts");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->structure, catalog::StorageStructure::kIsam);
  EXPECT_EQ(info->row_count, 3000);
  EXPECT_EQ(info->overflow_pages, 0);  // fresh build
  MustExec("ANALYZE ts");

  QueryResult plan =
      MustExec("EXPLAIN SELECT v FROM ts WHERE id BETWEEN 100 AND 120");
  EXPECT_NE(plan.stats.plan_text.find("IsamScan"), std::string::npos)
      << plan.stats.plan_text;
  QueryResult r = MustExec("SELECT count(*) FROM ts WHERE id BETWEEN 100 "
                           "AND 120");
  EXPECT_EQ(r.rows[0][0].AsInt(), 21);
  r = MustExec("SELECT v FROM ts WHERE id = 77");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "v77");

  // Post-build inserts land in overflow chains; R3's signal accrues.
  for (int i = 3000; i < 6000; ++i) {
    MustExec("INSERT INTO ts VALUES (" + std::to_string(i) + ", 'o')");
  }
  MustExec("ANALYZE ts");
  info = db_.catalog()->GetTable("ts");
  EXPECT_GT(info->overflow_pages, 0);
  r = MustExec("SELECT count(*) FROM ts");
  EXPECT_EQ(r.rows[0][0].AsInt(), 6000);
}

TEST_F(DatabaseTest, AnalyzeImprovesEstimates) {
  MustExec("CREATE TABLE t (v INT)");
  for (int i = 0; i < 1000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i % 100) + ")");
  }
  QueryResult before = MustExec("SELECT v FROM t WHERE v = 5");
  MustExec("ANALYZE t");
  QueryResult after = MustExec("SELECT v FROM t WHERE v = 5");
  // 10 of 1000 rows match (1%); without statistics the default equality
  // selectivity (10%) predicts ~100 rows. The histogram fixes this — the
  // paper's "collect statistics" tuning signal.
  double truth = 10.0;
  EXPECT_GT(before.stats.estimated_rows, 50.0);
  EXPECT_LT(std::abs(after.stats.estimated_rows - truth),
            std::abs(before.stats.estimated_rows - truth));
  EXPECT_NEAR(after.stats.estimated_rows, truth, 5.0);
}

TEST_F(DatabaseTest, SecondaryIndexUsedAfterCreate) {
  MustExec("CREATE TABLE t (a INT, b INT)");
  // b is highly selective (~2 matches in 3000) so an unclustered index
  // probe beats the sequential scan once the index exists.
  for (int i = 0; i < 3000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i / 2) + ")");
  }
  MustExec("ANALYZE t");
  QueryResult no_index = MustExec("EXPLAIN SELECT a FROM t WHERE b = 7");
  EXPECT_EQ(no_index.stats.plan_text.find("IndexScan"), std::string::npos);
  MustExec("CREATE INDEX t_b ON t (b)");
  QueryResult with_index = MustExec("EXPLAIN SELECT a FROM t WHERE b = 7");
  EXPECT_NE(with_index.stats.plan_text.find("t_b"), std::string::npos)
      << with_index.stats.plan_text;
  QueryResult r = MustExec("SELECT count(*) FROM t WHERE b = 7");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(DatabaseTest, WhatIfVirtualIndexLowersCost) {
  MustExec("CREATE TABLE t (a INT, b INT)");
  for (int i = 0; i < 3000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i % 500) + ")");
  }
  MustExec("ANALYZE t");
  auto table = db_.catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());

  auto base = db_.WhatIfPlan("SELECT a FROM t WHERE b = 7", {});
  ASSERT_TRUE(base.ok());

  catalog::IndexInfo virt;
  virt.id = -1;
  virt.name = "virt_t_b";
  virt.table_id = table->id;
  virt.key_columns = {1};
  virt.is_virtual = true;
  auto with = db_.WhatIfPlan("SELECT a FROM t WHERE b = 7", {virt});
  ASSERT_TRUE(with.ok());
  EXPECT_LT(with->summary.TotalCost(), base->summary.TotalCost());
  ASSERT_EQ(with->virtual_indexes_used.size(), 1u);
  EXPECT_EQ(with->virtual_indexes_used[0], -1);
  // What-if planning must not create anything real.
  EXPECT_FALSE(db_.catalog()->GetIndex("virt_t_b").ok());
}

// A plan built with a virtual index can only be explained, never run:
// executing one fails with an Internal error naming the index, whether
// the index drives a root scan (plain or aggregating) or the probes of
// an index-NL join, and with or without a worker pool.
TEST_F(DatabaseTest, VirtualIndexPlansFailToExecute) {
  MustExec("CREATE TABLE t (a INT, b INT)");
  for (int begin = 0; begin < 3000; begin += 500) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = begin; i < begin + 500; ++i) {
      if (i > begin) sql += ", ";
      sql += "(" + std::to_string(i) + ", " + std::to_string(i / 2) + ")";
    }
    MustExec(sql);
  }
  MustExec("CREATE TABLE p (k INT)");
  MustExec("INSERT INTO p VALUES (3), (50), (120)");
  MustExec("ANALYZE t");
  MustExec("ANALYZE p");
  auto table = db_.catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  catalog::IndexInfo virt;
  virt.id = -1;
  virt.name = "virt_t_b";
  virt.table_id = table->id;
  virt.key_columns = {1};
  virt.is_virtual = true;

  struct Case {
    const char* sql;
    const char* plan;
    const char* error;
  };
  const Case cases[] = {
      {"SELECT a FROM t WHERE b = 7", "IndexScan(t0 via virt_t_b [virtual])",
       "attempted to execute a plan using virtual index 'virt_t_b'"},
      {"SELECT count(*) FROM t WHERE b = 7",
       "IndexScan(t0 via virt_t_b [virtual])",
       "attempted to execute a plan using virtual index 'virt_t_b'"},
      {"SELECT p.k, t.a FROM p JOIN t ON p.k = t.b",
       "IndexNLJoin(inner IndexScan via virt_t_b [virtual])",
       "attempted to probe virtual index 'virt_t_b'"},
  };
  exec::WorkerPool pool(2);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    auto parsed = sql::Parse(c.sql);
    ASSERT_TRUE(parsed.ok());
    optimizer::Binder binder(db_.catalog());
    auto bound =
        binder.BindSelect(static_cast<sql::SelectStmt*>(parsed->get()));
    ASSERT_TRUE(bound.ok()) << bound.status();
    optimizer::Planner planner(
        db_.catalog(), optimizer::PlannerOptions{db_.cost_model(), {virt}});
    auto plan = planner.PlanJoinTree(*bound);
    ASSERT_TRUE(plan.ok()) << plan.status();
    std::string text = planner.Summarize(**plan, *bound).plan_text;
    EXPECT_NE(text.find(c.plan), std::string::npos) << text;
    auto compiled = exec::CompiledSelect::Compile(*bound, **plan);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    for (exec::WorkerPool* workers : {static_cast<exec::WorkerPool*>(nullptr),
                                      &pool}) {
      exec::ExecContext ctx;
      ctx.storage = db_.storage_layer();
      ctx.tables = &bound->tables;
      ctx.workers = workers;
      ctx.compiled = compiled->get();
      auto rs = exec::ExecuteSelect(*bound, **plan, &ctx);
      ASSERT_FALSE(rs.ok());
      EXPECT_EQ(rs.status().code(), StatusCode::kInternal);
      EXPECT_EQ(std::string(rs.status().message()), c.error);
    }
    // Programs are required: without them ExecuteSelect refuses to run.
    exec::ExecContext uncompiled;
    uncompiled.storage = db_.storage_layer();
    uncompiled.tables = &bound->tables;
    auto rs = exec::ExecuteSelect(*bound, **plan, &uncompiled);
    ASSERT_FALSE(rs.ok());
    EXPECT_EQ(rs.status().code(), StatusCode::kInternal);
  }
}

TEST_F(DatabaseTest, TransactionsCommitAndRollback) {
  MakeProtein();
  auto session = db_.CreateSession();
  ASSERT_TRUE(db_.Execute("BEGIN", session.get()).ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO protein VALUES (1, 'A', 1, 1.0)",
                          session.get())
                  .ok());
  ASSERT_TRUE(db_.Execute("ROLLBACK", session.get()).ok());
  QueryResult r = MustExec("SELECT count(*) FROM protein");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);

  ASSERT_TRUE(db_.Execute("BEGIN", session.get()).ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO protein VALUES (2, 'B', 1, 1.0)",
                          session.get())
                  .ok());
  ASSERT_TRUE(db_.Execute("COMMIT", session.get()).ok());
  r = MustExec("SELECT count(*) FROM protein");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

using IdRowList = std::vector<std::pair<int64_t, int64_t>>;

/// (id, v) rows of table `a`, read on `session`, ordered by id.
IdRowList IdRows(Database* db, Session* session) {
  IdRowList out;
  auto r = db->Execute("SELECT id, v FROM a ORDER BY id", session);
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return out;
  for (const Row& row : r->rows) {
    out.emplace_back(row[0].AsInt(), row[1].AsInt());
  }
  return out;
}

TEST_F(DatabaseTest, FailedStatementLeavesNoRow) {
  MustExec("CREATE TABLE a (id INT PRIMARY KEY, v INT)");
  MustExec("INSERT INTO a VALUES (1, 1), (2, 2)");
  // Each fails on its second row's duplicate key. The UPDATE moves row 1
  // to id 5, and row 2 then collides with it.
  struct Case {
    const char* sql;
    bool explicit_txn;
  };
  for (const Case& c : {Case{"INSERT INTO a VALUES (3, 3), (1, 9)", false},
                        Case{"INSERT INTO a VALUES (3, 3), (1, 9)", true},
                        Case{"UPDATE a SET id = 5 WHERE id >= 1", false},
                        Case{"UPDATE a SET id = 5 WHERE id >= 1", true}}) {
    SCOPED_TRACE(std::string(c.sql) +
                 (c.explicit_txn ? " inside BEGIN" : " in autocommit"));
    auto session = db_.CreateSession();
    IdRowList expected{{1, 1}, {2, 2}};
    if (c.explicit_txn) {
      ASSERT_TRUE(db_.Execute("BEGIN", session.get()).ok());
      ASSERT_TRUE(db_.Execute("INSERT INTO a VALUES (10, 10)", session.get())
                      .ok());
      expected.emplace_back(10, 10);
    }
    auto r = db_.Execute(c.sql, session.get());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists) << r.status();
    if (c.explicit_txn) {
      // Only the failed statement is undone; the transaction goes on.
      ASSERT_TRUE(db_.Execute("INSERT INTO a VALUES (11, 11)", session.get())
                      .ok());
      expected.emplace_back(11, 11);
      ASSERT_TRUE(db_.Execute("COMMIT", session.get()).ok());
    }
    EXPECT_EQ(IdRows(&db_, session.get()), expected);
    MustExec("DELETE FROM a WHERE id >= 10");
  }
}

// Integer overflow, INT64_MIN / -1 and INT64_MIN % -1 are statement
// errors: the process survives and the database stays usable.
TEST_F(DatabaseTest, IntegerOverflowIsAStatementError) {
  MustExec("CREATE TABLE t (a INT)");
  MustExec("INSERT INTO t VALUES (-9223372036854775807)");
  for (const char* sql : {"SELECT (a - 1) / -1 FROM t",
                          "SELECT (a - 1) % -1 FROM t",
                          "UPDATE t SET a = (a - 1) / -1",
                          "SELECT a - 2 FROM t", "SELECT a * 2 FROM t",
                          "SELECT -(a - 1) FROM t",
                          "SELECT abs(a - 1) FROM t"}) {
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_EQ(r.status().message(), "integer out of range") << sql;
    QueryResult after = MustExec("SELECT a, (a - 1) / 1 FROM t");
    ASSERT_EQ(after.rows.size(), 1u);
    EXPECT_EQ(after.rows[0][0].AsInt(), -9223372036854775807);
    EXPECT_EQ(after.rows[0][1].AsInt(), std::numeric_limits<int64_t>::min());
  }
}

// INSERT VALUES items are bound against no table, then compiled: a
// scalar function with the wrong number of arguments is a statement
// error, not a crash.
TEST_F(DatabaseTest, InsertValuesCheckFunctionArity) {
  MustExec("CREATE TABLE t (a INT)");
  for (const char* sql : {"INSERT INTO t VALUES (abs())",
                          "INSERT INTO t VALUES (abs(1, 2))"}) {
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().message(),
              "function 'abs' takes exactly one argument")
        << sql;
  }
  MustExec("INSERT INTO t VALUES (abs(-4))");
  QueryResult rows = MustExec("SELECT a FROM t");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsInt(), 4);
}

// A column reference in INSERT VALUES has no table to resolve against:
// the statement fails with the binder's NotFound, not an Internal error
// from the compiler, and inserts nothing.
TEST_F(DatabaseTest, InsertValuesColumnReferenceIsUnknownColumn) {
  MustExec("CREATE TABLE t (a INT, b INT)");
  for (const char* sql : {"INSERT INTO t VALUES (a, 1)",
                          "INSERT INTO t (b) VALUES (t.a + 1)"}) {
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << sql;
    EXPECT_NE(std::string(r.status().message()).find("unknown column"),
              std::string::npos)
        << r.status();
  }
  EXPECT_TRUE(MustExec("SELECT a FROM t").rows.empty());
}

// An UPDATE whose SET expression fails on its second row leaves both
// rows as they were: the first row's new value is undone.
TEST_F(DatabaseTest, FailedSetExpressionLeavesRowsUnchanged) {
  MustExec("CREATE TABLE t (id INT, v INT, tag TEXT)");
  MustExec("INSERT INTO t VALUES (1, 10, NULL), (2, 20, 'x')");
  auto r = db_.Execute("UPDATE t SET v = tag - 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "arithmetic on text value");
  QueryResult rows = MustExec("SELECT id, v FROM t ORDER BY id");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][1].AsInt(), 10);
  EXPECT_EQ(rows.rows[1][1].AsInt(), 20);
}

// A trigger whose WHEN errors on a row raises no alert for it and never
// fails the INSERT; rows on which it evaluates still fire.
TEST_F(DatabaseTest, TriggerWhenErrorNeverFailsInsert) {
  MustExec("CREATE TABLE metrics (sessions INT, host TEXT)");
  MustExec("CREATE TRIGGER too_many AFTER INSERT ON metrics "
           "WHEN sessions >= 100 OR host - 1 > 0 RAISE 'limit'");
  std::vector<AlertEvent> alerts;
  db_.SetAlertHandler([&](const AlertEvent& e) { alerts.push_back(e); });
  MustExec("INSERT INTO metrics VALUES (50, 'h'), (120, 'h'), (60, NULL)");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].row[0].AsInt(), 120);
  QueryResult count = MustExec("SELECT count(*) FROM metrics");
  EXPECT_EQ(count.rows[0][0].AsInt(), 3);
  db_.SetAlertHandler(nullptr);
}

TEST(StatementScopeTest, FailedJoinReleasesItsLocks) {
  DatabaseOptions options;
  options.lock_timeout = std::chrono::milliseconds(50);
  Database db(options);
  ASSERT_TRUE(db.Execute("CREATE TABLE a (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE b (id INT PRIMARY KEY, v INT)").ok());
  auto writer = db.CreateSession();
  auto reader = db.CreateSession();
  auto third = db.CreateSession();
  ASSERT_TRUE(db.Execute("BEGIN", writer.get()).ok());
  ASSERT_TRUE(db.Execute("INSERT INTO b VALUES (1, 1)", writer.get()).ok());
  const int64_t writer_locks = db.lock_manager()->stats().locks_held;
  ASSERT_GE(writer_locks, 1);

  // The join takes a's shared lock, then times out on b.
  auto r = db.Execute("SELECT a.v, b.v FROM a, b WHERE a.id = b.id",
                      reader.get());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBusy()) << r.status();
  EXPECT_EQ(db.lock_manager()->stats().locks_held, writer_locks);
  EXPECT_FALSE(reader->in_transaction());
  auto w = db.Execute("INSERT INTO a VALUES (1, 1)", third.get());
  EXPECT_TRUE(w.ok()) << w.status();
  ASSERT_TRUE(db.Execute("ROLLBACK", writer.get()).ok());
  EXPECT_EQ(db.lock_manager()->stats().locks_held, 0);
}

TEST_F(DatabaseTest, DeadlockDetected) {
  MustExec("CREATE TABLE x (v INT)");
  MustExec("CREATE TABLE y (v INT)");
  MustExec("INSERT INTO x VALUES (1)");
  MustExec("INSERT INTO y VALUES (1)");

  auto s1 = db_.CreateSession();
  auto s2 = db_.CreateSession();
  ASSERT_TRUE(db_.Execute("BEGIN", s1.get()).ok());
  ASSERT_TRUE(db_.Execute("BEGIN", s2.get()).ok());
  ASSERT_TRUE(db_.Execute("UPDATE x SET v = 2", s1.get()).ok());
  ASSERT_TRUE(db_.Execute("UPDATE y SET v = 2", s2.get()).ok());

  // s1 waits on y (held by s2); s2 then requests x -> deadlock.
  std::atomic<bool> s1_done{false};
  Status s1_status;
  std::thread t1([&] {
    auto r = db_.Execute("UPDATE y SET v = 3", s1.get());
    s1_status = r.status();
    s1_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto r2 = db_.Execute("UPDATE x SET v = 3", s2.get());
  t1.join();
  // One of the two must have been aborted as the deadlock victim.
  bool s1_aborted = s1_status.IsAborted();
  bool s2_aborted = !r2.ok() && r2.status().IsAborted();
  EXPECT_TRUE(s1_aborted || s2_aborted);
  EXPECT_GE(db_.lock_manager()->stats().total_deadlocks, 1);
  // Clean up: end both txns.
  db_.Execute("COMMIT", s1.get()).ok();
  db_.Execute("COMMIT", s2.get()).ok();
}

TEST_F(DatabaseTest, TriggersRaiseAlerts) {
  MustExec("CREATE TABLE metrics (sessions INT)");
  MustExec("CREATE TRIGGER too_many AFTER INSERT ON metrics "
           "WHEN sessions >= 100 RAISE 'session limit reached'");
  std::vector<AlertEvent> alerts;
  db_.SetAlertHandler([&](const AlertEvent& e) { alerts.push_back(e); });
  MustExec("INSERT INTO metrics VALUES (50)");
  EXPECT_TRUE(alerts.empty());
  MustExec("INSERT INTO metrics VALUES (120)");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].trigger_name, "too_many");
  EXPECT_EQ(alerts[0].message, "session limit reached");
  EXPECT_EQ(alerts[0].row[0].AsInt(), 120);
}

TEST_F(DatabaseTest, StatementNestedInAlertHandlerCommitsBothTraces) {
  MustExec("CREATE TABLE metrics (sessions INT)");
  MustExec("CREATE TABLE audit (v INT)");
  MustExec("CREATE TRIGGER too_many AFTER INSERT ON metrics "
           "WHEN sessions >= 100 RAISE 'session limit reached'");
  const std::string outer = "INSERT INTO metrics VALUES (120)";
  const std::string inner = "SELECT v FROM audit WHERE v = 7";
  auto session = db_.CreateSession();
  int nested_runs = 0;
  // The handler runs on the inserting thread, in the middle of the
  // INSERT, and issues a statement on the same session.
  db_.SetAlertHandler([&](const AlertEvent&) {
    auto r = db_.Execute(inner, session.get());
    EXPECT_TRUE(r.ok()) << r.status();
    ++nested_runs;
  });
  db_.monitor()->Clear();
  ASSERT_TRUE(db_.Execute(outer, session.get()).ok());
  db_.SetAlertHandler(nullptr);
  ASSERT_EQ(nested_runs, 1);

  const uint64_t outer_hash = HashStatement(outer);
  const uint64_t inner_hash = HashStatement(inner);
  // The inner statement commits first; each record is its own.
  auto workload = db_.monitor()->SnapshotWorkload();
  ASSERT_EQ(workload.size(), 2u);
  EXPECT_EQ(workload[0].hash, inner_hash);
  EXPECT_EQ(workload[0].rows_output, 0);
  EXPECT_EQ(workload[1].hash, outer_hash);
  EXPECT_EQ(workload[1].rows_output, 1);
  EXPECT_GE(workload[1].wallclock_nanos, workload[0].wallclock_nanos);

  auto metrics = db_.catalog()->GetTable("metrics");
  auto audit = db_.catalog()->GetTable("audit");
  ASSERT_TRUE(metrics.ok() && audit.ok());
  std::multiset<std::pair<uint64_t, int64_t>> table_refs;
  for (const auto& ref : db_.monitor()->SnapshotReferences()) {
    if (ref.type == monitor::RefType::kTable) {
      table_refs.insert({ref.hash, ref.object_id});
    }
  }
  EXPECT_EQ(table_refs, (std::multiset<std::pair<uint64_t, int64_t>>{
                            {inner_hash, audit->id}, {outer_hash, metrics->id}}));

  std::map<uint64_t, std::string> texts;
  for (const auto& st : db_.monitor()->SnapshotStatements()) {
    texts[st.hash] = st.text;
  }
  EXPECT_EQ(texts[inner_hash], inner);
  EXPECT_EQ(texts[outer_hash], outer);

#ifndef IMON_METRICS_DISABLED
  // INSERT has no optimize stage; the nested SELECT has all five.
  std::map<uint64_t, int> spans;
  for (const auto& tr : db_.monitor()->SnapshotTraces()) ++spans[tr.hash];
  EXPECT_EQ(spans[outer_hash], monitor::kNumStages - 1);
  EXPECT_EQ(spans[inner_hash], monitor::kNumStages);
#endif
}

TEST_F(DatabaseTest, CreateIndexBetweenExecutionsKeepsOldReferenceRows) {
  MustExec("CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  MustExec("INSERT INTO t VALUES (1, 10), (2, 20)");
  const std::string before = "SELECT a FROM t WHERE b = 10";
  const std::string after = "SELECT a FROM t WHERE b = 20";
  MustExec(before);
  MustExec("CREATE INDEX t_b ON t (b)");
  MustExec(after);

  auto table = db_.catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  std::set<int64_t> all_indexes;
  for (const auto& index : db_.catalog()->IndexesOnTable(table->id)) {
    all_indexes.insert(index.id);
  }
  ASSERT_EQ(all_indexes.size(), 2u);
  // Both statements share a template; each keeps the available indexes
  // its own execution saw.
  std::map<uint64_t, std::set<int64_t>> available;
  int64_t table_rows = 0;
  for (const auto& ref : db_.monitor()->SnapshotReferences()) {
    if (ref.type == monitor::RefType::kIndex) {
      available[ref.hash].insert(ref.object_id);
    }
    table_rows += ref.type == monitor::RefType::kTable &&
                  ref.object_id == table->id;
  }
  EXPECT_EQ(available[HashStatement(before)].size(), 1u);
  EXPECT_EQ(available[HashStatement(after)], all_indexes);
  // Every record is retained, so frequencies equal the reference rows.
  EXPECT_EQ(db_.monitor()->TableFrequencies()[table->id], table_rows);
}

TEST_F(DatabaseTest, StatementNestedInAlertHandlerJoinsOuterTransaction) {
  MustExec("CREATE TABLE metrics (sessions INT)");
  MustExec("CREATE TABLE audit (v INT PRIMARY KEY)");
  MustExec("INSERT INTO audit VALUES (1)");
  MustExec("CREATE TRIGGER too_many AFTER INSERT ON metrics "
           "WHEN sessions >= 100 RAISE 'session limit reached'");
  auto session = db_.CreateSession();
  int64_t locks_after_nested = -1;
  Status failed_nested;
  db_.SetAlertHandler([&](const AlertEvent&) {
    auto r = db_.Execute("SELECT v FROM audit WHERE v = 7", session.get());
    EXPECT_TRUE(r.ok()) << r.status();
    // The outer INSERT's exclusive lock outlives the nested statement.
    locks_after_nested = db_.lock_manager()->stats().locks_held;
    // Fails on its second row: only its own first row is undone.
    failed_nested =
        db_.Execute("INSERT INTO audit VALUES (2), (1)", session.get())
            .status();
  });
  // The trigger fires on the second row, after the first is in.
  ASSERT_TRUE(
      db_.Execute("INSERT INTO metrics VALUES (5), (120)", session.get())
          .ok());
  db_.SetAlertHandler(nullptr);
  EXPECT_GE(locks_after_nested, 1);
  EXPECT_EQ(failed_nested.code(), StatusCode::kAlreadyExists)
      << failed_nested;
  EXPECT_EQ(MustExec("SELECT count(*) FROM metrics").rows[0][0].AsInt(), 2);
  EXPECT_EQ(MustExec("SELECT count(*) FROM audit").rows[0][0].AsInt(), 1);
  EXPECT_FALSE(session->in_transaction());
  EXPECT_EQ(db_.lock_manager()->stats().locks_held, 0);
}

TEST_F(DatabaseTest, AlertHandlerSwapWhileTriggersFire) {
  MustExec("CREATE TABLE metrics (sessions INT)");
  MustExec("CREATE TRIGGER every_row AFTER INSERT ON metrics "
           "WHEN sessions >= 0 RAISE 'row'");
  std::atomic<int64_t> fired{0};
  // Each handler owns a heap-allocated capture, so replacing it frees
  // memory a handler still running would read.
  auto make_handler = [&fired](int gen) {
    std::string tag(64, static_cast<char>('a' + gen % 26));
    return [&fired, tag](const AlertEvent&) {
      if (tag.size() == 64) fired.fetch_add(1);
    };
  };
  db_.SetAlertHandler(make_handler(0));
  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    for (int gen = 1; !stop.load(); ++gen) {
      db_.SetAlertHandler(make_handler(gen));
      std::this_thread::yield();
    }
  });
  auto session = db_.CreateSession();
  constexpr int kInserts = 400;
  int ok = 0;
  for (int i = 0; i < kInserts; ++i) {
    auto r = db_.Execute("INSERT INTO metrics VALUES (" + std::to_string(i) +
                             ")",
                         session.get());
    if (r.ok()) ++ok;
  }
  stop.store(true);
  swapper.join();
  EXPECT_EQ(ok, kInserts);
  EXPECT_EQ(fired.load(), kInserts);
}

/// Runs the statements RowsExaminedTest pins against `db`.
void ExpectPinnedRowsExamined(Database* db) {
  auto exec = [&](const std::string& sql) {
    auto r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? r.TakeValue() : QueryResult{};
  };
  auto fill = [&](const std::string& table, int64_t rows, int64_t stride) {
    for (int64_t begin = 0; begin < rows; begin += 500) {
      std::string sql = "INSERT INTO " + table + " VALUES ";
      for (int64_t i = begin; i < std::min(rows, begin + 500); ++i) {
        int64_t id = (i * stride) % rows;
        if (i > begin) sql += ", ";
        sql += "(" + std::to_string(id) + ", " + std::to_string(id / 2) +
               ", 'v" + std::to_string(id) + "')";
      }
      exec(sql);
    }
  };
  for (const char* structure : {"HEAP", "BTREE", "HASH", "ISAM"}) {
    std::string name = "re_" + std::string(structure);
    exec("CREATE TABLE " + name +
         " (id INT PRIMARY KEY, grp INT, v TEXT) WITH MAIN_PAGES = 4");
    fill(name, 400, 37);
    if (std::string(structure) != "HEAP") {
      exec("MODIFY " + name + " TO " + structure);
    }
    exec("ANALYZE " + name);
  }
  exec("CREATE TABLE re_big (id INT PRIMARY KEY, grp INT, v TEXT)");
  fill("re_big", 4000, 1);
  exec("CREATE INDEX re_big_grp ON re_big (grp)");
  exec("ANALYZE re_big");
  exec("CREATE TABLE re_probe (k INT)");
  exec("INSERT INTO re_probe VALUES (3), (50), (120), (300), (NULL)");
  exec("ANALYZE re_probe");

  struct Case {
    std::string sql;
    std::string plan;         ///< expected EXPLAIN fragment, or empty
    int64_t examined;         ///< QueryResult.stats.rows_examined
    int64_t monitored;        ///< rows_examined the monitor recorded
    int64_t rows_or_affected;
  };
  std::vector<Case> cases = {
      {"SELECT p.k, b.v FROM re_probe p JOIN re_BTREE b ON p.k = b.id",
       "IndexNLJoin(inner BtreeScan)", 13, 13, 4},
      {"SELECT p.k, h.v FROM re_probe p JOIN re_big h ON p.k = h.grp",
       "IndexNLJoin(inner IndexScan via re_big_grp)", 21, 21, 8},
      // Build 5 + probe scan 400 + 400 probes + 6 key matches.
      {"SELECT p.k, h.v FROM re_probe p JOIN re_HEAP h ON p.k = h.grp",
       "HashJoin(keys=1)", 811, 811, 6},
      // The whole bucket chain is examined, LIMIT or not.
      {"SELECT v FROM re_HASH WHERE id = 77", "HashLookup", 100, 100, 1},
      {"SELECT v FROM re_HASH WHERE id = 77 LIMIT 1", "HashLookup", 100, 100,
       1},
  };
  // DML reports no rows_examined in its QueryResult; the monitor records
  // the matched targets.
  for (const char* structure : {"HEAP", "BTREE", "HASH", "ISAM"}) {
    std::string name = "re_" + std::string(structure);
    cases.push_back({"UPDATE " + name + " SET v = 'u' WHERE id = 17", "", 0,
                     1, 1});
    cases.push_back({"DELETE FROM " + name + " WHERE id = 18", "", 0, 1, 1});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    if (!c.plan.empty()) {
      QueryResult plan = exec("EXPLAIN " + c.sql);
      EXPECT_NE(plan.stats.plan_text.find(c.plan), std::string::npos)
          << plan.stats.plan_text;
    }
    QueryResult r = exec(c.sql);
    int64_t monitored = db->monitor()->SnapshotWorkload().back().rows_examined;
    int64_t rows_or_affected = c.sql.rfind("SELECT", 0) == 0
                                   ? static_cast<int64_t>(r.rows.size())
                                   : r.affected_rows;
    EXPECT_EQ(r.stats.rows_examined, c.examined);
    EXPECT_EQ(monitored, c.monitored);
    EXPECT_EQ(rows_or_affected, c.rows_or_affected);
  }
}

// rows_examined feeds the monitor's actual-cost sensor. These statements
// read through index-NL probes, a hash join, a one-bucket hash unit list
// and DML target collection on every structure; their counts are pinned
// so a change of read path cannot move the sensor's input unnoticed.
TEST(RowsExaminedTest, PinnedOnProbeAndDmlPaths) {
  Database db{DatabaseOptions{}};
  ExpectPinnedRowsExamined(&db);
}

TEST_F(DatabaseTest, MonitorRecordsStatementPath) {
  MakeProtein();
  MustExec("INSERT INTO protein VALUES (1, 'A', 1, 1.0)");
  MustExec("SELECT nref_id FROM protein WHERE nref_id = 1");
  MustExec("SELECT nref_id FROM protein WHERE nref_id = 1");

  auto statements = db_.monitor()->SnapshotStatements();
  bool found = false;
  for (const auto& s : statements) {
    if (s.text == "SELECT nref_id FROM protein WHERE nref_id = 1") {
      found = true;
      EXPECT_EQ(s.frequency, 2);
    }
  }
  EXPECT_TRUE(found);

  auto workload = db_.monitor()->SnapshotWorkload();
  ASSERT_GE(workload.size(), 3u);
  const auto& last = workload.back();
  EXPECT_GT(last.wallclock_nanos, 0);
  EXPECT_GT(last.monitor_nanos, 0);
  EXPECT_GE(last.estimated_cpu + last.estimated_io, 0);

  auto refs = db_.monitor()->SnapshotReferences();
  EXPECT_FALSE(refs.empty());
  auto table_freq = db_.monitor()->TableFrequencies();
  auto protein = db_.catalog()->GetTable("protein");
  ASSERT_TRUE(protein.ok());
  EXPECT_GE(table_freq[protein->id], 3);
}

TEST_F(DatabaseTest, MonitorDisabledAddsNothing) {
  DatabaseOptions options;
  options.monitor.enabled = false;
  Database off(options);
  ASSERT_TRUE(off.Execute("CREATE TABLE t (v INT)").ok());
  ASSERT_TRUE(off.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(off.Execute("SELECT * FROM t").ok());
  EXPECT_TRUE(off.monitor()->SnapshotStatements().empty());
  EXPECT_TRUE(off.monitor()->SnapshotWorkload().empty());
  EXPECT_EQ(off.monitor()->counters().total_monitor_nanos, 0);
}

TEST_F(DatabaseTest, PlanCacheHitsAndInvalidation) {
  DatabaseOptions options;
  options.plan_cache_capacity = 64;
  Database db(options);
  auto exec = [&](const std::string& sql) {
    auto r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  };
  exec("CREATE TABLE t (v INT)");
  exec("INSERT INTO t VALUES (1)");
  exec("INSERT INTO t VALUES (2)");

  const std::string q = "SELECT count(*) FROM t WHERE v > 0";
  exec(q);  // miss: fills the cache
  exec(q);  // hit
  exec(q);  // hit
  auto stats = db.plan_cache_stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_GE(stats.misses, 1);
  EXPECT_GE(stats.entries, 1);

  // Cached plans return fresh data (inserts don't invalidate)...
  exec("INSERT INTO t VALUES (3)");
  auto r = db.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 3);

  // ...but DDL invalidates: the plan must pick up the new index.
  exec("CREATE INDEX t_v ON t (v)");
  for (int i = 0; i < 3000; ++i) {
    exec("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  exec("ANALYZE t");
  auto after = db.Execute("SELECT count(*) FROM t WHERE v = 77");
  ASSERT_TRUE(after.ok());
  auto again = db.Execute("SELECT count(*) FROM t WHERE v = 77");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->stats.used_indexes.empty());
  // Re-running the earlier cached statement drops its stale entry.
  exec(q);
  EXPECT_GT(db.plan_cache_stats().invalidations, 0);
}

TEST_F(DatabaseTest, PlanCacheBoundedUnderInvalidationChurn) {
  // The index the DDL churns is on a column no query filters on, so it
  // only moves the catalog version: every cached plan goes stale.
  auto fill = [](Database* db) {
    auto session = db->CreateSession();
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 200; ++i) {
      insert += (i > 0 ? ", (" : "(") + std::to_string(i) + ", " +
                std::to_string(i % 17) + ", " + std::to_string(i * 3) + ")";
    }
    for (const std::string& sql :
         {std::string("CREATE TABLE t (v INT PRIMARY KEY, w INT, x INT)"),
          insert}) {
      auto r = db->Execute(sql, session.get());
      ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
    }
  };
  // 24 statements over 16 slots, so the threaded phase evicts too; the
  // first 12 spread at most two to a stripe.
  std::vector<std::string> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back("SELECT w FROM t WHERE v = " + std::to_string(i * 2));
    queries.push_back("SELECT count(*) FROM t WHERE w = " +
                      std::to_string(i));
  }
  std::vector<std::vector<Row>> expected;
  {
    Database off{DatabaseOptions{}};
    fill(&off);
    for (const std::string& q : queries) {
      auto r = off.Execute(q);
      ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
      expected.push_back(r->rows);
    }
  }
  constexpr int64_t kCapacity = 16;
  DatabaseOptions options;
  options.plan_cache_capacity = kCapacity;
  Database db(options);
  fill(&db);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  auto reader = [&]() {
    auto session = db.CreateSession();
    while (!done.load()) {
      for (size_t i = 0; i < queries.size(); ++i) {
        auto r = db.Execute(queries[i], session.get());
        if (!r.ok() || r->rows != expected[i] ||
            db.plan_cache_stats().entries > kCapacity) {
          failures.fetch_add(1);
        }
      }
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  {
    auto session = db.CreateSession();
    for (int i = 0; i < 200; ++i) {
      for (const char* ddl : {"CREATE INDEX t_x ON t (x)", "DROP INDEX t_x"}) {
        auto r = db.Execute(ddl, session.get());
        if (!r.ok()) failures.fetch_add(1);
      }
    }
  }
  done.store(true);
  r1.join();
  r2.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(db.plan_cache_stats().entries, kCapacity);
  EXPECT_GT(db.plan_cache_stats().invalidations, 0);

  // Single-threaded: once every plan of a query set that fits its
  // stripes is cached, a DDL statement makes each of them stale; the
  // next round's lookups are exactly the stale ones, and each re-store
  // refills its slot without evicting.
  constexpr size_t kCached = 12;
  Database solo(options);
  fill(&solo);
  auto run_all = [&]() {
    for (size_t i = 0; i < kCached; ++i) {
      auto r = solo.Execute(queries[i]);
      ASSERT_TRUE(r.ok()) << queries[i] << " -> " << r.status();
      EXPECT_EQ(r->rows, expected[i]) << queries[i];
    }
  };
  run_all();
  ASSERT_EQ(solo.plan_cache_stats().entries, static_cast<int64_t>(kCached));
  for (int cycle = 0; cycle < 20; ++cycle) {
    ASSERT_TRUE(solo.Execute(cycle % 2 == 0 ? "CREATE INDEX t_x ON t (x)"
                                            : "DROP INDEX t_x")
                    .ok());
    PlanCacheStats start = solo.plan_cache_stats();
    run_all();
    PlanCacheStats stale = solo.plan_cache_stats();
    EXPECT_EQ(stale.invalidations - start.invalidations, start.entries);
    EXPECT_EQ(stale.misses - start.misses, start.entries);
    EXPECT_EQ(stale.entries, start.entries);
    run_all();
    PlanCacheStats fresh = solo.plan_cache_stats();
    EXPECT_EQ(fresh.invalidations, stale.invalidations);
    EXPECT_EQ(fresh.hits - stale.hits, static_cast<int64_t>(kCached));
  }
}

TEST_F(DatabaseTest, PlanCacheMonitoredLikeNormalStatements) {
  DatabaseOptions options;
  options.plan_cache_capacity = 16;
  Database db(options);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (v INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.Execute("SELECT v FROM t").ok());
  }
  // Frequency counts cached executions too.
  bool found = false;
  for (const auto& s : db.monitor()->SnapshotStatements()) {
    if (s.text == "SELECT v FROM t") {
      found = true;
      EXPECT_EQ(s.frequency, 4);
    }
  }
  EXPECT_TRUE(found);
}

/// imp_templates as (fingerprint, template_text, executions, sample_text)
/// rows after a fixed statement mix. An internal session first fills the
/// plan cache with a SELECT that a user session then hits.
std::vector<std::string> TemplatesAfterMix(size_t plan_cache_capacity) {
  SimulatedClock clock(1'000'000);  // one timestamp: sample = min hash
  DatabaseOptions options;
  options.clock = &clock;
  options.plan_cache_capacity = plan_cache_capacity;
  Database db(options);
  EXPECT_TRUE(ima::RegisterImaTables(&db).ok());
  auto internal = db.CreateInternalSession();
  auto exec = [&](const std::string& sql, Session* session) {
    auto r = db.Execute(sql, session);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
  };
  exec("CREATE TABLE t (v INT PRIMARY KEY, w INT)", internal.get());
  exec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)", internal.get());
  exec("SELECT w FROM t WHERE v = 2", internal.get());

  auto user = db.CreateSession();
  for (int round = 0; round < 3; ++round) {
    for (const std::string& sql : {
             std::string("SELECT w FROM t WHERE v = 2"),
             "SELECT w FROM t WHERE v = " + std::to_string(round),
             std::string("SELECT count(*) FROM t WHERE v IN (1, 2, 3);"),
             "SELECT count(*) FROM t WHERE v IN (" +
                 std::to_string(round) + ")",
             "select W from T where V > -" + std::to_string(round),
             "UPDATE t SET w = w + 1 WHERE v = " + std::to_string(round),
             "INSERT INTO t VALUES (" + std::to_string(10 + round) + ", 0)",
         }) {
      exec(sql, user.get());
    }
  }
  if (plan_cache_capacity > 0) {
    EXPECT_GT(db.plan_cache_stats().hits, 0);
  }

  auto r = db.Execute(
      "SELECT fingerprint, template_text, executions, sample_text "
      "FROM imp_templates",
      internal.get());
  EXPECT_TRUE(r.ok()) << r.status();
  std::vector<std::string> rows;
  if (!r.ok()) return rows;
  for (const Row& row : r->rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + " | ";
    rows.push_back(line);
  }
  std::sort(rows.begin(), rows.end());
  // The internally filled, user-hit entry records the text's fingerprint.
  auto fp = static_cast<int64_t>(
      sql::NormalizeStatement("SELECT w FROM t WHERE v = 2").fingerprint);
  EXPECT_TRUE(std::any_of(rows.begin(), rows.end(), [&](const std::string& s) {
    return s.rfind(Value::Int(fp).ToString() +
                       " | 'select w from t where v = ?' | 6 |",
                   0) == 0;
  })) << "missing the point-select template in\n"
      << ::testing::PrintToString(rows);
  return rows;
}

TEST(PlanCacheTemplateTest, TemplatesIdenticalWithPlanCacheOnAndOff) {
  std::vector<std::string> off = TemplatesAfterMix(0);
  std::vector<std::string> on = TemplatesAfterMix(64);
  EXPECT_EQ(off.size(), 5u);
  EXPECT_EQ(on, off);
}

TEST_F(DatabaseTest, ParseErrorsDoNotCrash) {
  EXPECT_FALSE(db_.Execute("SELEKT * FROM nowhere").ok());
  EXPECT_FALSE(db_.Execute("SELECT FROM").ok());
  EXPECT_FALSE(db_.Execute("").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM missing_table").ok());
  MakeProtein();
  EXPECT_FALSE(db_.Execute("SELECT missing_col FROM protein").ok());
}

TEST_F(DatabaseTest, InQueryAndArithmetic) {
  MustExec("CREATE TABLE t (v INT)");
  for (int i = 1; i <= 10; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  QueryResult r = MustExec("SELECT count(*) FROM t WHERE v IN (2, 4, 6)");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  r = MustExec("SELECT v * 2 + 1 FROM t WHERE v = 5");
  EXPECT_EQ(r.rows[0][0].AsInt(), 11);
  r = MustExec("SELECT count(*) FROM t WHERE v % 2 = 0");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
}

}  // namespace
}  // namespace imon::engine
