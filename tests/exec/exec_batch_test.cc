// Vectorized execution: batch-boundary correctness and the differential
// oracle between batch sizes. The invariant mirrors the physical-design
// oracle: batch size may change *cost*, never *results*. (Expression
// semantics are checked against the reference evaluator in
// tests/exec/expr_differential_test.cc.)

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "testing/oracle.h"
#include "tests/testing_util.h"

namespace imon::engine {
namespace {

using imon::testing::Fingerprint;

DatabaseOptions Opts(size_t batch_size) {
  DatabaseOptions o;
  o.exec_batch_size = batch_size;
  return o;
}

/// n rows of t(id, v, tag): v cycles 0..9 with every 7th row NULL, tag
/// is 'even'/'odd' with every 11th row NULL. Multi-row INSERTs keep
/// population fast at the 1025-row boundary sizes.
void PopulateRows(Database* db, int n) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE t (id INT, v INT, tag TEXT)").ok());
  std::string sql;
  for (int i = 0; i < n; ++i) {
    if (sql.empty()) {
      sql = "INSERT INTO t VALUES ";
    } else {
      sql += ", ";
    }
    std::string v = i % 7 == 0 ? "NULL" : std::to_string(i % 10);
    std::string tag =
        i % 11 == 0 ? "NULL" : (i % 2 == 0 ? "'even'" : "'odd'");
    sql += "(" + std::to_string(i) + ", " + v + ", " + tag + ")";
    if (i % 256 == 255 || i == n - 1) {
      ASSERT_TRUE(db->Execute(sql).ok());
      sql.clear();
    }
  }
}

const char* const kBatchQueries[] = {
    "SELECT count(*) FROM t",
    "SELECT count(*), count(v), sum(v), min(id), max(id) FROM t",
    "SELECT count(*) FROM t WHERE v > 5",
    "SELECT count(*) FROM t WHERE v IS NULL",
    "SELECT count(*) FROM t WHERE v IS NOT NULL AND tag = 'even'",
    "SELECT v, count(*) FROM t GROUP BY v ORDER BY v",
    "SELECT tag, sum(v) FROM t GROUP BY tag HAVING sum(v) > 10",
    "SELECT id, v + 1 FROM t WHERE id < 20 ORDER BY id",
    "SELECT count(*) FROM t WHERE v IN (1, 3, NULL)",
    "SELECT count(*) FROM t WHERE v BETWEEN 2 AND 8 AND tag LIKE 'e%'",
    "SELECT count(*) FROM t WHERE NOT (v > 3 OR tag = 'odd')",
};

std::vector<std::string> RunAll(Database* db) {
  std::vector<std::string> out;
  for (const char* q : kBatchQueries) {
    auto r = db->Execute(q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
    out.push_back(r.ok() ? Fingerprint(*r) : "<error>");
  }
  return out;
}

class ExecBatchTest : public ::testing::Test {};

// Row counts straddling the 1024-row default batch: 1 (single short
// batch), 1023 (one row shy), 1024 (exactly one full batch), 1025 (full
// batch + one-row tail), each against row-at-a-time batches of one.
TEST_F(ExecBatchTest, BatchBoundaryRowCounts) {
  for (int n : {1, 1023, 1024, 1025}) {
    Database single{Opts(1)};
    PopulateRows(&single, n);
    auto baseline = RunAll(&single);

    Database batched{Opts(1024)};
    PopulateRows(&batched, n);
    auto got = RunAll(&batched);
    for (size_t i = 0; i < std::size(kBatchQueries); ++i) {
      EXPECT_EQ(got[i], baseline[i])
          << "n=" << n << " diverged on: " << kBatchQueries[i];
    }

    // count(*) sees every row at every boundary.
    auto r = batched.Execute("SELECT count(*) FROM t");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].AsInt(), n) << "n=" << n;
  }
}

// A predicate rejecting every row produces fully-filtered batches; the
// emptied selection vector must short-circuit downstream work without
// emitting rows or disturbing aggregates over the empty set.
TEST_F(ExecBatchTest, AllFilteredBatches) {
  Database db{Opts(256)};
  PopulateRows(&db, 1025);

  auto r = db.Execute("SELECT id FROM t WHERE v < 0");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());

  r = db.Execute("SELECT count(*), sum(v) FROM t WHERE v < 0");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r->rows[0][1].is_null()) << "sum over empty set is NULL";

  // A range predicate that empties only interior batches (rows 300..800
  // span full 256-row batches) while head and tail survive.
  r = db.Execute(
      "SELECT count(*) FROM t WHERE id < 300 OR id > 800");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 300 + (1025 - 801));
}

// NULLs interleaved in a batch must propagate through the selection
// vector with SQL three-valued logic: a NULL predicate drops the row, a
// NULL operand poisons only its own row's projection.
TEST_F(ExecBatchTest, NullPropagationThroughSelectionVector) {
  Database db{Opts(4)};  // tiny batches force many boundaries
  ASSERT_TRUE(db.Execute("CREATE TABLE n (id INT, v INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO n VALUES (0, 5), (1, NULL), (2, 7), "
                         "(3, NULL), (4, 1), (5, 9), (6, NULL), (7, 2)")
                  .ok());

  auto r = db.Execute("SELECT id FROM n WHERE v > 4 ORDER BY id");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 3u);  // NULL > 4 is UNKNOWN, not true
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
  EXPECT_EQ(r->rows[1][0].AsInt(), 2);
  EXPECT_EQ(r->rows[2][0].AsInt(), 5);

  // NULL v survives a predicate on id; its projection stays NULL.
  r = db.Execute("SELECT v + 10 FROM n WHERE id = 3");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->rows[0][0].is_null());

  // Kleene OR: NULL OR TRUE is TRUE, so NULL-v rows with id >= 6 pass.
  r = db.Execute("SELECT count(*) FROM n WHERE v > 4 OR id >= 6");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 5);
}

// The headline differential: batch size 1 versus 1024 over the classic
// two-table dataset (joins, grouping, LIKE, IN, DISTINCT, LIMIT) must
// fingerprint identically.
TEST_F(ExecBatchTest, DifferentialBatchSizeOneVsDefault) {
  const char* const kQueries[] = {
      "SELECT count(*) FROM item",
      "SELECT id, price FROM item WHERE id = 123",
      "SELECT grp, count(*), avg(price) FROM item GROUP BY grp",
      "SELECT i.grp, sum(s.qty) FROM item i JOIN sale s ON i.id = s.item_id "
      "GROUP BY i.grp HAVING sum(s.qty) > 10",
      "SELECT DISTINCT tag FROM item WHERE tag LIKE 'tag%' ORDER BY tag",
      "SELECT count(*) FROM item i JOIN sale s ON i.id = s.item_id WHERE "
      "i.grp IN (1, 3, 5) AND s.qty >= 3",
      "SELECT grp, max(price) - min(price) FROM item WHERE price > 100 "
      "GROUP BY grp ORDER BY grp DESC",
      "SELECT id FROM item WHERE tag IS NULL AND grp < 6 ORDER BY id "
      "LIMIT 25",
  };

  Database one{Opts(1)};
  imon::testing::Populate(&one, 99);
  Database big{Opts(1024)};
  imon::testing::Populate(&big, 99);

  for (const char* q : kQueries) {
    auto r1 = one.Execute(q);
    auto r2 = big.Execute(q);
    ASSERT_TRUE(r1.ok()) << q << " -> " << r1.status();
    ASSERT_TRUE(r2.ok()) << q << " -> " << r2.status();
    EXPECT_EQ(Fingerprint(*r1), Fingerprint(*r2))
        << "batch 1 vs 1024 diverged on: " << q;
  }
}

// Errors and accounting do not depend on the batch size: a type error
// raised mid-batch is the same error, division by zero yields NULL, and
// a full scan examines every row once.
TEST_F(ExecBatchTest, BatchSizesAgreeOnErrorsAndAccounting) {
  Database single{Opts(1)};
  PopulateRows(&single, 100);
  Database batched{Opts(1024)};
  PopulateRows(&batched, 100);

  // Arithmetic on text errors the same way at both batch sizes.
  auto r1 = single.Execute("SELECT tag - 1 FROM t WHERE id = 2");
  auto r2 = batched.Execute("SELECT tag - 1 FROM t WHERE id = 2");
  ASSERT_FALSE(r1.ok());
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r1.status().message(), "arithmetic on text value");
  EXPECT_EQ(r2.status().message(), r1.status().message());

  // INT division by zero yields NULL (not an error).
  r1 = single.Execute("SELECT count(*) FROM t WHERE v / 0 > 1");
  r2 = batched.Execute("SELECT count(*) FROM t WHERE v / 0 > 1");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->rows[0][0].AsInt(), 0);
  EXPECT_EQ(Fingerprint(*r1), Fingerprint(*r2));

  // Full-scan accounting is identical: every row examined once.
  r1 = single.Execute("SELECT count(*) FROM t WHERE v > 3");
  r2 = batched.Execute("SELECT count(*) FROM t WHERE v > 3");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->stats.rows_examined, 100);
  EXPECT_EQ(r2->stats.rows_examined, 100);
}

}  // namespace
}  // namespace imon::engine
