// Parallel hash-join microbenchmark: a build-heavy equi-join (60k-row
// build side, 60k-row probe side) swept across worker counts {1, 4, 8}.
// The build side runs as its own morsel pipeline, its keys are evaluated
// over fixed 1024-row chunks and its bucket chains linked per bucket
// range, all on the worker pool; the probe side's morsels then stream
// through the probe into per-morsel partial aggregates. Emits
// BENCH_join.json; tier1.sh gates the 1-worker throughput against the
// committed baseline (>15% regression fails).
// Speedups are hardware-relative — on a single-core box w8 collapses
// to ~1x, so the gate compares absolute w1 throughput to a baseline
// recorded on the same machine while the speedup is recorded for
// multi-core runs to inspect.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "engine/database.h"

namespace imon::bench {
namespace {

constexpr int kRowsBase = 60000;  // per side
constexpr int kRepeats = 3;

engine::DatabaseOptions Opts(size_t workers) {
  engine::DatabaseOptions o;
  o.exec_workers = workers;
  o.buffer_pool_pages = 8192;
  return o;
}

void Populate(engine::Database* db, int rows) {
  MustExec(db, "CREATE TABLE build_t (k INT, cat INT, w DOUBLE)");
  MustExec(db, "CREATE TABLE probe_t (k INT, q INT)");
  std::string sql;
  for (int i = 0; i < rows; ++i) {
    sql += sql.empty() ? "INSERT INTO build_t VALUES " : ", ";
    sql += "(";
    sql += std::to_string(i);
    sql += ", ";
    sql += std::to_string(i % 16);
    sql += ", ";
    sql += std::to_string(i % 1000);
    sql += ".25)";
    if (i % 512 == 511 || i == rows - 1) {
      MustExec(db, sql);
      sql.clear();
    }
  }
  for (int i = 0; i < rows; ++i) {
    sql += sql.empty() ? "INSERT INTO probe_t VALUES " : ", ";
    sql += "(";
    sql += std::to_string((i * 7) % rows);
    sql += ", ";
    sql += std::to_string(1 + i % 5);
    sql += ")";
    if (i % 512 == 511 || i == rows - 1) {
      MustExec(db, sql);
      sql.clear();
    }
  }
}

// Every build row is keyed (no filter on build_t before the join), so
// the hash table holds the full 60k entries; the probe matches ~1 row
// per key. Aggregation keeps the result set a single row.
const char* const kJoinQuery =
    "SELECT count(*), sum(b.w), sum(p.q) FROM probe_t p "
    "JOIN build_t b ON p.k = b.k WHERE b.cat < 14";

double BestTime(engine::Database* db, const char* query) {
  MustExec(db, query);  // warm the buffer pool + plan cache path
  double best = 1e30;
  for (int i = 0; i < kRepeats; ++i) {
    int64_t start = MonotonicNanos();
    MustExec(db, query);
    double secs = static_cast<double>(MonotonicNanos() - start) / 1e9;
    best = std::min(best, secs);
  }
  return best;
}

int Main() {
  const int rows = static_cast<int>(Scaled(kRowsBase));
  PrintHeader("micro_parallel_join",
              "parallel hash join across worker counts");

  const size_t worker_counts[] = {1, 4, 8};
  std::vector<double> join_rps;

  std::printf("%-10s %12s %14s\n", "workers", "join secs", "join rows/s");
  for (size_t workers : worker_counts) {
    engine::Database db{Opts(workers)};
    Populate(&db, rows);
    double secs = BestTime(&db, kJoinQuery);
    // Throughput counts both sides: build rows hashed + probe rows fed.
    join_rps.push_back(2.0 * rows / secs);
    std::printf("%-10zu %12.4f %14.0f\n", workers, secs, join_rps.back());
  }

  double speedup_w4 = join_rps[1] / join_rps[0];
  double speedup_w8 = join_rps[2] / join_rps[0];
  std::printf("join speedup at 4 workers: %.2fx, at 8 workers: %.2fx\n",
              speedup_w4, speedup_w8);

  JsonWriter json("join");
  json.Metric("rows_per_side", rows, "rows");
  json.Metric("join_w1_rows_per_sec", join_rps[0], "rows/s");
  json.Metric("join_w4_rows_per_sec", join_rps[1], "rows/s");
  json.Metric("join_w8_rows_per_sec", join_rps[2], "rows/s");
  json.Metric("build_speedup_w4", speedup_w4, "x");
  json.Metric("build_speedup_w8", speedup_w8, "x");
  json.Write();
  return 0;
}

}  // namespace
}  // namespace imon::bench

int main() { return imon::bench::Main(); }
