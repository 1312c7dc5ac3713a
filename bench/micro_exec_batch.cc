// Vectorized-executor microbenchmark: compiled ExprPrograms over 1024-
// and 64-row batches on a 100k-row scan + filter + aggregate. Emits
// BENCH_exec.json; tier1.sh gates batched_rows_per_sec against the
// committed baseline (>15% regression fails).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "engine/database.h"

namespace imon::bench {
namespace {

constexpr int kRowsBase = 100000;
constexpr int kRepeats = 5;

engine::DatabaseOptions Opts(size_t batch_size) {
  engine::DatabaseOptions o;
  o.exec_batch_size = batch_size;
  o.buffer_pool_pages = 16384;
  return o;
}

void Populate(engine::Database* db, int rows) {
  MustExec(db, "CREATE TABLE m (id INT, v INT, w DOUBLE, tag TEXT)");
  std::string sql;
  for (int i = 0; i < rows; ++i) {
    sql += sql.empty() ? "INSERT INTO m VALUES " : ", ";
    sql += "(" + std::to_string(i) + ", " + std::to_string(i % 97) + ", " +
           std::to_string((i % 1000)) + ".5, 'tag" + std::to_string(i % 13) +
           "')";
    if (i % 512 == 511 || i == rows - 1) {
      MustExec(db, sql);
      sql.clear();
    }
  }
}

// Filter + aggregate with real expression weight: multi-operator
// predicates and arithmetic aggregate arguments, not bare column
// references, so the per-operator cost of the programs shows.
const char* const kQuery =
    "SELECT count(*), sum(v * 2 + 1), avg(w * 0.5 + v), min(w - v), "
    "max(v * v) FROM m "
    "WHERE (v * 13 + 7) % 31 > 23 AND (v % 7 <> 3 OR w > 500.0) "
    "AND w * 0.25 + v * 2 > 30.0 AND v < 90";

/// Best-of-kRepeats wall-clock seconds for the scan+filter+aggregate.
double BestTime(engine::Database* db) {
  MustExec(db, kQuery);  // warm the buffer pool
  double best = 1e30;
  for (int i = 0; i < kRepeats; ++i) {
    int64_t start = MonotonicNanos();
    MustExec(db, kQuery);
    double secs = static_cast<double>(MonotonicNanos() - start) / 1e9;
    best = std::min(best, secs);
  }
  return best;
}

int Main() {
  const int rows = static_cast<int>(Scaled(kRowsBase));
  PrintHeader("micro_exec_batch",
              "vectorized batches + compiled expressions");

  engine::Database batched{Opts(1024)};
  Populate(&batched, rows);
  double batched_secs = BestTime(&batched);

  engine::Database small{Opts(64)};
  Populate(&small, rows);
  double small_secs = BestTime(&small);

  double batched_rps = rows / batched_secs;

  std::printf("%-28s %12s %14s\n", "configuration", "secs", "rows/s");
  std::printf("%-28s %12.4f %14.0f\n", "compiled, batch 1024",
              batched_secs, batched_rps);
  std::printf("%-28s %12.4f %14.0f\n", "compiled, batch 64", small_secs,
              rows / small_secs);

  JsonWriter json("exec");
  json.Metric("rows", rows, "rows");
  json.Metric("batched_rows_per_sec", batched_rps, "rows/s");
  json.Metric("batch64_rows_per_sec", rows / small_secs, "rows/s");
  json.Write();
  return 0;
}

}  // namespace
}  // namespace imon::bench

int main() { return imon::bench::Main(); }
