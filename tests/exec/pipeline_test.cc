// Join pipelines: probe-side morsels stream through hash, nested-loop and
// index-NL probes into per-morsel sinks (gather, LIMIT-capped gather,
// top-k, partial aggregate). The worker count may change cost, never
// results: every query here must give the same ordered output (or the
// same error) and the same rows_examined for workers {1, 2, 4, 8} at each
// morsel size. morsel_pages=1 splits every table into several morsels;
// 32 keeps each in one.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "tests/testing_util.h"

namespace imon::engine {
namespace {

DatabaseOptions Opts(size_t workers, size_t morsel_pages) {
  DatabaseOptions o;
  o.exec_workers = workers;
  o.exec_morsel_pages = morsel_pages;
  return o;
}

/// Ordered rows plus rows_examined, or the error.
std::string Outcome(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  if (!r.ok()) return r.status().ToString();
  std::string out;
  for (const Row& row : r->rows) {
    for (const Value& v : row) out += v.ToString() + "|";
    out += "\n";
  }
  return out + "examined=" + std::to_string(r->stats.rows_examined);
}

void MustExec(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
}

/// item/sale from Populate, plus:
///  grp_info(grp, name): one row per item.grp, for 3-way joins;
///  c(id, v) indexed on id, two rows per id, and pick(k): index-NL
///  probe keys into c, NULLs included;
///  ka(k, v) / kb(k, w): hash-join keys with NULLs on both sides;
///  e(id, g, n, label) / d(g, k): label is non-NULL on e.id 10 only and
///  n is INT64_MAX on e.id 380 only, so the residual `e.n + d.k > 0 AND
///  e.label - d.k > 0` fails on those two rows, in different morsels.
void PopulatePipelines(Database* db) {
  imon::testing::Populate(db, /*seed=*/21);
  std::string sql = "INSERT INTO grp_info VALUES ";
  for (int g = 0; g < 12; ++g) {
    sql += (g > 0 ? ", (" : "(") + std::to_string(g) + ", 'g" +
           std::to_string(g % 5) + "')";
  }
  MustExec(db, "CREATE TABLE grp_info (grp INT, name TEXT)");
  MustExec(db, sql);
  MustExec(db, "CREATE TABLE c (id INT, v INT)");
  for (int i = 0; i < 3000; i += 500) {
    std::string c = "INSERT INTO c VALUES ";
    for (int j = i; j < i + 500; ++j) {
      c += std::string(j > i ? ", " : "") + "(" + std::to_string(j % 1500) +
           ", " + std::to_string(j % 97) + ")";
    }
    MustExec(db, c);
  }
  MustExec(db, "CREATE INDEX c_id ON c (id)");
  MustExec(db, "CREATE TABLE pick (k INT)");
  MustExec(db, "INSERT INTO pick VALUES (7), (NULL), (123), (399), (NULL), "
               "(5000), (42)");
  MustExec(db, "CREATE TABLE ka (k INT, v INT)");
  MustExec(db, "CREATE TABLE kb (k INT, w INT)");
  for (int i = 0; i < 600; i += 100) {
    std::string a = "INSERT INTO ka VALUES ";
    std::string b = "INSERT INTO kb VALUES ";
    for (int j = i; j < i + 100; ++j) {
      std::string sep = j > i ? ", " : "";
      a += sep + "(" + (j % 9 == 0 ? "NULL" : std::to_string(j % 40)) + ", " +
           std::to_string(j) + ")";
      b += sep + "(" + (j % 7 == 0 ? "NULL" : std::to_string(j % 55)) + ", " +
           std::to_string(j) + ")";
    }
    MustExec(db, a);
    MustExec(db, b);
  }
  MustExec(db, "CREATE TABLE e (id INT, g INT, n INT, label TEXT)");
  for (int i = 0; i < 400; i += 100) {
    std::string s = "INSERT INTO e VALUES ";
    for (int j = i; j < i + 100; ++j) {
      s += std::string(j > i ? ", " : "") + "(" + std::to_string(j) + ", " +
           std::to_string(j % 4) + ", " +
           (j == 380 ? "9223372036854775807" : std::to_string(j)) + ", " +
           (j == 10 ? "'x'" : "NULL") + ")";
    }
    MustExec(db, s);
  }
  MustExec(db, "CREATE TABLE d (g INT, k INT)");
  MustExec(db, "INSERT INTO d VALUES (0, 1), (1, 1), (2, 1), (3, 1)");
  for (const char* t : {"item", "sale", "grp_info", "c", "pick", "ka", "kb",
                        "e", "d"}) {
    MustExec(db, std::string("ANALYZE ") + t);
  }
}

struct Query {
  const char* sql;
  const char* plan;  ///< join method the query must exercise
};

const Query kQueries[] = {
    // GROUP BY over a 2-way hash join: per-morsel partial groups.
    {"SELECT i.grp, count(*), sum(s.qty), min(s.day), max(i.price) "
     "FROM item i JOIN sale s ON i.id = s.item_id GROUP BY i.grp "
     "ORDER BY i.grp",
     "HashJoin"},
    // GROUP BY over a 3-way hash join, groups in first-seen order.
    {"SELECT g.name, count(*), sum(s.qty) FROM sale s "
     "JOIN item i ON s.item_id = i.id JOIN grp_info g ON i.grp = g.grp "
     "GROUP BY g.name",
     "HashJoin"},
    // Bare LIMIT over a join: each morsel keeps its first 37 rows.
    {"SELECT i.id, s.qty, s.day FROM item i JOIN sale s "
     "ON i.id = s.item_id WHERE s.qty > 1 LIMIT 37",
     "HashJoin"},
    // LIMIT over a 3-way join.
    {"SELECT s.item_id, s.day, g.name FROM sale s "
     "JOIN item i ON s.item_id = i.id JOIN grp_info g ON i.grp = g.grp "
     "WHERE s.day < 10 LIMIT 50",
     "HashJoin"},
    // ORDER BY ... LIMIT over a join: per-morsel top-k.
    {"SELECT i.id, s.day, s.qty FROM item i JOIN sale s "
     "ON i.id = s.item_id ORDER BY s.day DESC, s.qty LIMIT 25",
     "HashJoin"},
    // LIMIT 0 over a join returns no rows.
    {"SELECT i.id FROM item i JOIN sale s ON i.id = s.item_id LIMIT 0",
     "HashJoin"},
    // Index-NL join, NULL probe keys and a key with no match; the inner
    // filter runs on every row a probe reads.
    {"SELECT p.k, c.v FROM pick p JOIN c ON p.k = c.id WHERE c.v < 90",
     "IndexNLJoin"},
    // Nested-loop join on an expression key, with LIMIT.
    {"SELECT i.id, g.name FROM item i JOIN grp_info g ON i.grp + 1 = g.grp "
     "WHERE i.price < 3000.0",
     "NLJoin"},
    {"SELECT i.id, g.name FROM item i JOIN grp_info g ON i.grp + 1 = g.grp "
     "LIMIT 30",
     "NLJoin"},
    // NULL keys on both sides of a hash join never match.
    {"SELECT a.v, b.w FROM ka a JOIN kb b ON a.k = b.k", "HashJoin"},
    {"SELECT count(*), count(a.k), sum(b.w) FROM ka a JOIN kb b "
     "ON a.k = b.k",
     "HashJoin"},
    // The residual fails on e.id 10 (text arithmetic) and on e.id 380
    // (overflow), which lie in different morsels: the lowest one's error
    // is the statement's at every worker count.
    {"SELECT e.id FROM e JOIN d ON e.g = d.g "
     "WHERE e.n + d.k > 0 AND e.label - d.k > 0",
     "HashJoin"},
    // Without e.id 10, the overflow is the only error.
    {"SELECT e.id FROM e JOIN d ON e.g = d.g "
     "WHERE e.id > 20 AND e.n + d.k > 0 AND e.label - d.k > 0",
     "HashJoin"},
};

TEST(PipelineTest, JoinPipelinesAgreeAcrossWorkersAndMorselSizes) {
  for (size_t morsel_pages : {size_t{1}, size_t{32}}) {
    std::vector<std::string> baseline;
    for (size_t workers : {1u, 2u, 4u, 8u}) {
      Database db{Opts(workers, morsel_pages)};
      PopulatePipelines(&db);
      std::vector<std::string> got;
      for (const Query& q : kQueries) {
        auto plan = db.Execute(std::string("EXPLAIN ") + q.sql);
        ASSERT_TRUE(plan.ok()) << q.sql;
        EXPECT_NE(plan->stats.plan_text.find(q.plan), std::string::npos)
            << q.sql << "\n" << plan->stats.plan_text;
        got.push_back(Outcome(&db, q.sql));
      }
      if (baseline.empty()) {
        baseline = got;
        EXPECT_EQ(got[5].rfind("examined=", 0), 0u) << got[5];  // no rows
        EXPECT_EQ(got[11], "InvalidArgument: arithmetic on text value");
        EXPECT_EQ(got[12], "InvalidArgument: integer out of range");
        continue;
      }
      for (size_t i = 0; i < std::size(kQueries); ++i) {
        EXPECT_EQ(got[i], baseline[i])
            << "workers=" << workers << " morsel_pages=" << morsel_pages
            << " diverged on: " << kQueries[i].sql;
      }
    }
  }
}

// Morsel caps change how many rows a LIMIT over a join examines, never
// which rows it returns: the capped result is the uncapped one's prefix.
TEST(PipelineTest, LimitOverJoinIsPrefixOfUnlimited) {
  for (size_t morsel_pages : {size_t{1}, size_t{32}}) {
    Database db{Opts(4, morsel_pages)};
    PopulatePipelines(&db);
    const std::string join =
        "SELECT i.id, s.qty FROM item i JOIN sale s ON i.id = s.item_id";
    auto all = db.Execute(join);
    auto some = db.Execute(join + " LIMIT 40");
    ASSERT_TRUE(all.ok() && some.ok());
    ASSERT_EQ(some->rows.size(), 40u);
    for (size_t r = 0; r < some->rows.size(); ++r) {
      EXPECT_EQ(some->rows[r], all->rows[r]) << "row " << r;
    }
    EXPECT_LE(some->stats.rows_examined, all->stats.rows_examined);
  }
}

// Integer SUM that leaves the int64 range is a statement error, whether
// the overflow happens inside one morsel's partial sum (one morsel) or
// when partials merge (a morsel per page). COUNT, AVG, MIN and MAX over
// the same values still succeed.
TEST(PipelineTest, IntegerSumOverflowIsAStatementError) {
  for (size_t morsel_pages : {size_t{1}, size_t{32}}) {
    for (size_t workers : {1u, 4u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " morsel_pages=" + std::to_string(morsel_pages));
      Database db{Opts(workers, morsel_pages)};
      MustExec(&db, "CREATE TABLE big (id INT, g INT, v INT)");
      MustExec(&db, "INSERT INTO big VALUES (0, 1, 9223372036854775807)");
      for (int i = 1; i < 1500; i += 500) {
        std::string sql = "INSERT INTO big VALUES ";
        for (int j = i; j < i + 500; ++j) {
          sql += std::string(j > i ? ", " : "") + "(" + std::to_string(j) +
                 ", 0, 0)";
        }
        MustExec(&db, sql);
      }
      MustExec(&db, "INSERT INTO big VALUES (1501, 1, 9223372036854775807)");
      auto sum = db.Execute("SELECT sum(v) FROM big");
      ASSERT_FALSE(sum.ok());
      EXPECT_EQ(sum.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(sum.status().message(), "integer out of range");
      auto grouped = db.Execute("SELECT g, sum(v) FROM big GROUP BY g");
      ASSERT_FALSE(grouped.ok());
      EXPECT_EQ(grouped.status().message(), "integer out of range");
      auto others =
          db.Execute("SELECT count(v), max(v), min(v), avg(v) FROM big");
      ASSERT_TRUE(others.ok()) << others.status();
      EXPECT_EQ(others->rows[0][0].AsInt(), 1502);
      auto fits = db.Execute("SELECT sum(v) FROM big WHERE id > 0");
      ASSERT_TRUE(fits.ok()) << fits.status();
      EXPECT_EQ(fits->rows[0][0].AsInt(), 9223372036854775807);
    }
  }
}

}  // namespace
}  // namespace imon::engine
