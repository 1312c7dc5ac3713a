// Morsel-driven scans: the differential invariant is that the worker
// count and the morsel size may change *cost*, never *results*. Every
// real-table read is a unit list split into morsels — full sweeps, range
// scans, hash point probes (one bucket unit) and secondary-index scans
// alike — and a 1-lane pool runs the same morsels inline, so there is no
// separate serial path to compare against. Every query must produce
// byte-identical output across worker counts {1, 2, 4, 8} x batch sizes
// {1, 1024} x every storage structure (HEAP, BTREE, HASH, ISAM), morsel
// boundaries must not leak into results, and errors raised mid-scan must
// be deterministic regardless of scheduling.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "testing/oracle.h"
#include "tests/testing_util.h"

namespace imon::engine {
namespace {

using imon::testing::Fingerprint;

DatabaseOptions ParOpts(size_t workers, size_t morsel_pages = 0,
                        size_t batch_size = 0) {
  DatabaseOptions o;
  o.exec_workers = workers;
  if (morsel_pages > 0) o.exec_morsel_pages = morsel_pages;
  if (batch_size > 0) o.exec_batch_size = batch_size;
  return o;
}

/// Order-sensitive rendering: unlike Fingerprint (which sorts rows),
/// this preserves emission order so ORDER BY / LIMIT output and the
/// morsel gather order are part of the comparison.
std::string OrderedDump(const QueryResult& r) {
  std::string out;
  for (const Row& row : r.rows) {
    for (const Value& v : row) {
      out += v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

// The mix exercises every morsel-eligible shape: inner filtered scans,
// root aggregates (plain and grouped), top-k via ORDER BY + LIMIT, bare
// LIMIT pushdown, DISTINCT, and joins whose probe side is morselized.
// item.price values are exact quarter multiples, so double sums are
// dyadic and associativity cannot introduce drift.
const char* const kParallelQueries[] = {
    "SELECT count(*) FROM item",
    "SELECT count(*), count(tag), sum(price), min(price), max(price) "
    "FROM item",
    "SELECT grp, count(*), sum(price) FROM item GROUP BY grp ORDER BY grp",
    "SELECT id, price FROM item WHERE grp < 4 AND tag IS NOT NULL "
    "ORDER BY id",
    "SELECT id FROM item WHERE tag IS NULL AND grp < 6 ORDER BY id LIMIT 25",
    "SELECT id, grp FROM item WHERE price > 50.0 LIMIT 10",
    "SELECT DISTINCT grp FROM item ORDER BY grp",
    "SELECT id, price FROM item ORDER BY price, id LIMIT 7",
    "SELECT i.grp, sum(s.qty) FROM item i JOIN sale s ON i.id = s.item_id "
    "GROUP BY i.grp ORDER BY i.grp",
    "SELECT count(*) FROM sale WHERE qty > 2 AND day BETWEEN 10 AND 200",
};

std::vector<std::string> RunAll(Database* db) {
  std::vector<std::string> out;
  for (const char* q : kParallelQueries) {
    auto r = db->Execute(q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
    out.push_back(r.ok() ? OrderedDump(*r) : "<error>");
  }
  return out;
}

class ParallelScanTest : public ::testing::Test {};

TEST_F(ParallelScanTest, WorkerCountsAndBatchSizesAgree) {
  Database baseline_db{ParOpts(1)};
  imon::testing::Populate(&baseline_db, /*seed=*/7);
  auto baseline = RunAll(&baseline_db);

  for (size_t workers : {1u, 2u, 4u, 8u}) {
    for (size_t batch : {1u, 1024u}) {
      Database db{ParOpts(workers, 0, batch)};
      imon::testing::Populate(&db, /*seed=*/7);
      auto got = RunAll(&db);
      for (size_t i = 0; i < std::size(kParallelQueries); ++i) {
        EXPECT_EQ(got[i], baseline[i])
            << "workers=" << workers << " batch=" << batch
            << " diverged on: " << kParallelQueries[i];
      }
    }
  }
}

// The structure matrix drives every per-structure morsel source:
// B-Tree full sweeps and leaf ranges, ISAM directory-routed ranges,
// HASH bucket sweeps and the one-bucket hash point probe, a
// secondary-index scan, and a hash join whose build side is
// partitioned across the pool. morsel_pages=1 on the small dataset
// forces real multi-morsel decompositions for each of them.
const char* const kStructureQueries[] = {
    "SELECT count(*), count(tag), sum(price), min(id), max(id) FROM item",
    "SELECT id, grp, price FROM item WHERE id >= 57 AND id < 311 "
    "ORDER BY id",
    "SELECT id, tag FROM item WHERE id > 380 ORDER BY id",
    "SELECT count(*) FROM item WHERE id = 123",
    "SELECT id, price FROM item WHERE grp = 3 ORDER BY id",
    "SELECT grp, count(*) FROM item WHERE price < 5000.0 GROUP BY grp "
    "ORDER BY grp",
    "SELECT i.grp, count(*), sum(s.qty) FROM item i "
    "JOIN sale s ON i.id = s.item_id WHERE s.day < 20 "
    "GROUP BY i.grp ORDER BY i.grp",
    "SELECT count(*) FROM sale WHERE item_id >= 100 AND item_id < 300",
};

std::vector<std::string> RunStructure(Database* db) {
  std::vector<std::string> out;
  for (const char* q : kStructureQueries) {
    auto r = db->Execute(q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
    out.push_back(r.ok() ? OrderedDump(*r) : "<error>");
  }
  return out;
}

TEST_F(ParallelScanTest, StructureMatrixAgreesAcrossWorkers) {
  for (const char* structure : {"HEAP", "BTREE", "HASH", "ISAM"}) {
    std::vector<std::string> baseline;
    for (size_t workers : {1u, 2u, 4u, 8u}) {
      for (size_t batch : {1u, 1024u}) {
        Database db{ParOpts(workers, /*morsel_pages=*/1, batch)};
        imon::testing::Populate(&db, /*seed=*/7);
        if (std::string(structure) != "HEAP") {
          ASSERT_TRUE(
              db.Execute(std::string("MODIFY item TO ") + structure).ok());
          ASSERT_TRUE(
              db.Execute(std::string("MODIFY sale TO ") + structure).ok());
        }
        ASSERT_TRUE(db.Execute("CREATE INDEX i_grp ON item (grp)").ok());
        ASSERT_TRUE(db.Execute("ANALYZE item").ok());
        ASSERT_TRUE(db.Execute("ANALYZE sale").ok());
        auto got = RunStructure(&db);
        if (baseline.empty()) {
          baseline = got;
        } else {
          for (size_t i = 0; i < std::size(kStructureQueries); ++i) {
            EXPECT_EQ(got[i], baseline[i])
                << "structure=" << structure << " workers=" << workers
                << " batch=" << batch
                << " diverged on: " << kStructureQueries[i];
          }
        }
      }
    }
  }
}

// A hash join with the smaller relation as build side: the partitioned
// parallel build must emit probe matches in the same order as the
// serial build for any worker count, including under ORDER BY-free
// queries where emission order is directly visible.
TEST_F(ParallelScanTest, HashJoinBuildDeterministicAcrossWorkers) {
  std::string baseline;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    Database db{ParOpts(workers, /*morsel_pages=*/1)};
    imon::testing::Populate(&db, /*seed=*/13);
    auto r = db.Execute(
        "SELECT i.id, i.grp, s.qty, s.day FROM item i "
        "JOIN sale s ON i.id = s.item_id WHERE i.grp < 9");
    ASSERT_TRUE(r.ok()) << r.status();
    std::string got = OrderedDump(*r);
    if (workers == 1) {
      baseline = got;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(got, baseline) << "workers=" << workers;
    }
  }
}

/// a(id, x, k, big) and b(id, y, k, big) with NULL keys on both sides.
/// b.big is INT64_MAX exactly on the b rows whose k is NULL or >= 40, so
/// `a.big + b.big` overflows on those rows only, and no a.k (0..39 or
/// NULL) ever matches them. p(k), NULLs included, probes the index on
/// c(id, v).
void PopulateJoinKeys(Database* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE a (id INT, x INT, k INT, big INT)")
                  .ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE b (id INT, y INT, k INT, big INT)")
                  .ok());
  auto insert = [&](const char* table, int n, auto row) {
    std::string sql;
    for (int i = 0; i < n; ++i) {
      sql += sql.empty() ? std::string("INSERT INTO ") + table + " VALUES "
                         : std::string(", ");
      sql += row(i);
    }
    ASSERT_TRUE(db->Execute(sql).ok()) << table;
  };
  auto or_null = [](bool is_null, int v) {
    return is_null ? std::string("NULL") : std::to_string(v);
  };
  insert("a", 300, [&](int i) {
    return "(" + std::to_string(i) + ", " + or_null(i % 7 == 0, i % 50) +
           ", " + or_null(i % 11 == 0, i % 40) + ", 1)";
  });
  insert("b", 600, [&](int i) {
    bool null_k = i % 13 == 0;
    bool unmatched = null_k || i % 60 >= 40;
    return "(" + std::to_string(i) + ", " + or_null(i % 5 == 0, i % 51) +
           ", " + or_null(null_k, i % 60) + ", " +
           (unmatched ? "9223372036854775807" : std::to_string(i)) + ")";
  });
  ASSERT_TRUE(db->Execute("CREATE TABLE c (id INT, v INT)").ok());
  for (int begin = 0; begin < 3000; begin += 500) {
    insert("c", 500, [&](int i) {
      return "(" + std::to_string(begin + i) + ", " +
             std::to_string((begin + i) % 97) + ")";
    });
  }
  ASSERT_TRUE(db->Execute("CREATE INDEX c_id ON c (id)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE p (k INT)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO p VALUES (3), (NULL), (1700), "
                          "(NULL), (2999), (5000)")
                  .ok());
  ASSERT_TRUE(db->Execute("ANALYZE p").ok());
  ASSERT_TRUE(db->Execute("ANALYZE c").ok());
}

// Join keys, join residuals and index-NL probe keys run as compiled
// programs. Each query pins the join method it exercises and must give
// identical ordered output (or the identical error) for every worker
// count and batch size.
TEST_F(ParallelScanTest, CompiledJoinSitesAgreeAcrossWorkersAndBatchSizes) {
  struct Query {
    const char* sql;
    const char* plan;  ///< join method the query must exercise
  };
  const Query queries[] = {
      // Hash join: equi key plus an expression residual, NULLs both sides.
      {"SELECT a.id, b.id FROM a JOIN b ON a.k = b.k AND a.x + 1 = b.y",
       "HashJoin"},
      // The residual overflows on b rows no a.k matches: it runs only on
      // matched pairs, so the query succeeds.
      {"SELECT count(*), sum(b.id) FROM a JOIN b ON a.k = b.k "
       "WHERE a.big + b.big > 0",
       "HashJoin"},
      // Nested-loop join on an expression key, NULLs both sides.
      {"SELECT a.id, b.id FROM a JOIN b ON a.x + 1 = b.y", "NLJoin"},
      // Here the overflowing conjunct is reached on a pair with a huge
      // b.big, so the error is the statement's.
      {"SELECT a.id FROM a JOIN b ON a.x + 1 = b.y AND a.big + b.big > 0",
       "NLJoin"},
      // Index-NL probe whose outer key is NULL on two rows.
      {"SELECT p.k, c.v FROM p JOIN c ON p.k = c.id", "IndexNLJoin"},
  };
  std::vector<std::string> baseline;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    for (size_t batch : {1u, 1024u}) {
      Database db{ParOpts(workers, /*morsel_pages=*/1, batch)};
      PopulateJoinKeys(&db);
      std::vector<std::string> got;
      for (const Query& q : queries) {
        auto plan = db.Execute(std::string("EXPLAIN ") + q.sql);
        ASSERT_TRUE(plan.ok()) << q.sql;
        EXPECT_NE(plan->stats.plan_text.find(q.plan), std::string::npos)
            << q.sql << "\n" << plan->stats.plan_text;
        auto r = db.Execute(q.sql);
        got.push_back(r.ok() ? OrderedDump(*r) : r.status().ToString());
      }
      if (baseline.empty()) {
        baseline = got;
        EXPECT_EQ(got[3], "InvalidArgument: integer out of range");
        for (size_t i : {0u, 1u, 2u, 4u}) {
          EXPECT_EQ(got[i].find("Argument"), std::string::npos)
              << queries[i].sql << " -> " << got[i];
        }
        continue;
      }
      for (size_t i = 0; i < std::size(queries); ++i) {
        EXPECT_EQ(got[i], baseline[i])
            << "workers=" << workers << " batch=" << batch
            << " diverged on: " << queries[i].sql;
      }
    }
  }
}

// Degenerate morsel geometries: one page per morsel maximizes the
// number of partial results to merge; a huge morsel collapses the scan
// to a single task (the inline path). Both must match the default.
TEST_F(ParallelScanTest, MorselSizeDoesNotChangeResults) {
  Database baseline_db{ParOpts(4)};
  imon::testing::Populate(&baseline_db, /*seed=*/11);
  auto baseline = RunAll(&baseline_db);

  for (size_t morsel_pages : {size_t{1}, size_t{1} << 20}) {
    Database db{ParOpts(4, morsel_pages)};
    imon::testing::Populate(&db, /*seed=*/11);
    auto got = RunAll(&db);
    for (size_t i = 0; i < std::size(kParallelQueries); ++i) {
      EXPECT_EQ(got[i], baseline[i])
          << "morsel_pages=" << morsel_pages
          << " diverged on: " << kParallelQueries[i];
    }
  }
}

TEST_F(ParallelScanTest, EmptyTableAcrossWorkerCounts) {
  for (size_t workers : {1u, 4u}) {
    Database db{ParOpts(workers, /*morsel_pages=*/1)};
    ASSERT_TRUE(db.Execute("CREATE TABLE empty_t (a INT, b TEXT)").ok());
    auto rows = db.Execute("SELECT a, b FROM empty_t WHERE a > 0");
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->rows.empty());
    auto agg = db.Execute("SELECT count(*), sum(a) FROM empty_t");
    ASSERT_TRUE(agg.ok());
    ASSERT_EQ(agg->rows.size(), 1u);
    EXPECT_EQ(agg->rows[0][0].AsInt(), 0);
    EXPECT_TRUE(agg->rows[0][1].is_null());
  }
}

// A runtime error ('arithmetic on text value') fires only on rows with
// a non-NULL tag, i.e. mid-scan inside some morsel. Which morsel hits
// it first must not depend on scheduling: morsels are claimed in index
// order and the gather reports the lowest-indexed morsel's error.
TEST_F(ParallelScanTest, MidScanErrorsAreDeterministic) {
  std::string serial_msg;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    Database db{ParOpts(workers, /*morsel_pages=*/1)};
    imon::testing::Populate(&db, /*seed=*/7);
    auto r = db.Execute("SELECT id + tag FROM item");
    ASSERT_FALSE(r.ok()) << "workers=" << workers;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    if (workers == 1) {
      serial_msg = std::string(r.status().message());
    } else {
      EXPECT_EQ(std::string(r.status().message()), serial_msg)
          << "workers=" << workers;
    }
  }
}

// Full-table scans examine every row exactly once no matter how the
// pages are carved into morsels or which lane runs them.
TEST_F(ParallelScanTest, RowsExaminedParityOnFullScans) {
  const char* q = "SELECT count(*) FROM item WHERE grp < 5";
  int64_t serial_examined = -1;
  for (size_t workers : {1u, 4u}) {
    for (size_t batch : {1u, 1024u}) {
      Database db{ParOpts(workers, /*morsel_pages=*/1, batch)};
      imon::testing::Populate(&db, /*seed=*/7);
      auto r = db.Execute(q);
      ASSERT_TRUE(r.ok());
      if (serial_examined < 0) {
        serial_examined = r->stats.rows_examined;
      } else {
        EXPECT_EQ(r->stats.rows_examined, serial_examined)
            << "workers=" << workers << " batch=" << batch;
      }
    }
  }
}

// LIMIT 0 returns no rows on every query shape: bare (pushed into the
// morsels), ORDER BY (top-k) and GROUP BY (applied after aggregation);
// LIMIT 2 still returns exactly two.
TEST_F(ParallelScanTest, LimitZeroReturnsNoRows) {
  const char* const shapes[] = {
      "SELECT id FROM item",
      "SELECT id FROM item ORDER BY id",
      "SELECT grp, count(*) FROM item GROUP BY grp",
  };
  for (size_t workers : {1u, 4u}) {
    for (size_t batch : {1u, 1024u}) {
      Database db{ParOpts(workers, /*morsel_pages=*/1, batch)};
      imon::testing::Populate(&db, /*seed=*/7);
      for (const char* shape : shapes) {
        for (int limit : {0, 2}) {
          std::string q =
              std::string(shape) + " LIMIT " + std::to_string(limit);
          auto r = db.Execute(q);
          ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
          EXPECT_EQ(r->rows.size(), static_cast<size_t>(limit))
              << q << " workers=" << workers << " batch=" << batch;
        }
      }
    }
  }
}

// Many client threads issuing queries against one shared database while
// each query fans out over the worker pool: the TSan target for the
// whole scan path (shard locks, worker pool, per-lane scratch).
TEST_F(ParallelScanTest, ConcurrentClientsOnSharedDatabase) {
  Database db{ParOpts(4, /*morsel_pages=*/1)};
  imon::testing::Populate(&db, /*seed=*/3);
  auto expected_r = db.Execute(
      "SELECT grp, count(*), sum(price) FROM item GROUP BY grp ORDER BY grp");
  ASSERT_TRUE(expected_r.ok());
  std::string expected = OrderedDump(*expected_r);

  std::vector<std::thread> clients;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&db, &expected, &mismatches, t] {
      for (int iter = 0; iter < 10; ++iter) {
        auto r = db.Execute(
            "SELECT grp, count(*), sum(price) FROM item "
            "GROUP BY grp ORDER BY grp");
        if (!r.ok() || OrderedDump(*r) != expected) ++mismatches[t];
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "client " << t;
}

TEST_F(ParallelScanTest, ParallelCountersSurfaceInMetrics) {
  Database db{ParOpts(2, /*morsel_pages=*/1)};
  imon::testing::Populate(&db, /*seed=*/5);
  ASSERT_TRUE(db.Execute("SELECT count(*) FROM sale").ok());

  EXPECT_GT(db.metrics()->GetCounter("exec.morsels_dispatched")->Value(), 0);
  EXPECT_GT(db.metrics()->GetCounter("exec.morsels_total")->Value(), 0);
  EXPECT_GT(db.metrics()->GetCounter("exec.parallel_scans.heap")->Value(), 0);
  EXPECT_GT(db.metrics()->GetGauge("exec.morsel_lanes")->Value(), 0);

  // Per-structure scan counters follow the access path actually run.
  ASSERT_TRUE(db.Execute("MODIFY sale TO BTREE").ok());
  ASSERT_TRUE(db.Execute("SELECT count(*) FROM sale").ok());
  EXPECT_GT(db.metrics()->GetCounter("exec.parallel_scans.btree")->Value(), 0);
  ASSERT_TRUE(db.Execute("MODIFY sale TO HASH").ok());
  ASSERT_TRUE(db.Execute("SELECT count(*) FROM sale").ok());
  EXPECT_GT(db.metrics()->GetCounter("exec.parallel_scans.hash")->Value(), 0);

  // A hash point probe is one scan of one morsel (its bucket).
  ASSERT_TRUE(db.Execute("CREATE TABLE kv (id INT PRIMARY KEY, v TEXT) "
                         "WITH MAIN_PAGES = 4")
                  .ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO kv VALUES (1, 'a'), (2, 'b'), (3, 'c')").ok());
  ASSERT_TRUE(db.Execute("MODIFY kv TO HASH").ok());
  auto plan = db.Execute("EXPLAIN SELECT v FROM kv WHERE id = 2");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->stats.plan_text.find("HashLookup"), std::string::npos)
      << plan->stats.plan_text;
  int64_t scans =
      db.metrics()->GetCounter("exec.parallel_scans.hash")->Value();
  int64_t morsels = db.metrics()->GetCounter("exec.morsels_total")->Value();
  auto probe = db.Execute("SELECT v FROM kv WHERE id = 2");
  ASSERT_TRUE(probe.ok());
  ASSERT_EQ(probe->rows.size(), 1u);
  EXPECT_EQ(db.metrics()->GetCounter("exec.parallel_scans.hash")->Value(),
            scans + 1);
  EXPECT_EQ(db.metrics()->GetCounter("exec.morsels_total")->Value(),
            morsels + 1);

  std::vector<std::string> want = {
      "buffer_pool.shard_lock_wait", "buffer_pool.shard0.hits",
      "buffer_pool.shard0.misses",   "buffer_pool.shard0.evictions",
      "exec.morsels_dispatched",     "exec.worker_busy",
      "exec.morsels_total",          "exec.morsel_lanes",
  };
  auto values = db.metrics()->SnapshotValues();
  for (const std::string& name : want) {
    bool found = false;
    for (const auto& mv : values) found = found || mv.name == name;
    EXPECT_TRUE(found) << "metric not registered: " << name;
  }
}

// Open-time validation: sizing knobs of zero are rejected with a clear
// InvalidArgument naming the field, before any resources are created.
TEST_F(ParallelScanTest, OpenRejectsZeroSizingOptions) {
  struct Case {
    const char* field;
    void (*set)(DatabaseOptions*);
  };
  const Case cases[] = {
      {"exec_batch_size",
       [](DatabaseOptions* o) { o->exec_batch_size = 0; }},
      {"exec_workers", [](DatabaseOptions* o) { o->exec_workers = 0; }},
      {"exec_morsel_pages",
       [](DatabaseOptions* o) { o->exec_morsel_pages = 0; }},
      {"buffer_pool_shards",
       [](DatabaseOptions* o) { o->buffer_pool_shards = 0; }},
      {"buffer_pool_pages",
       [](DatabaseOptions* o) { o->buffer_pool_pages = 0; }},
  };
  for (const Case& c : cases) {
    DatabaseOptions o;
    c.set(&o);
    auto db = Database::Open(o);
    ASSERT_FALSE(db.ok()) << c.field;
    EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument) << c.field;
    EXPECT_NE(std::string(db.status().message()).find(c.field),
              std::string::npos)
        << db.status().message();
  }

  DatabaseOptions good;
  good.exec_workers = 2;
  auto db = Database::Open(good);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->Execute("CREATE TABLE ok_t (a INT)").ok());
}

}  // namespace
}  // namespace imon::engine
