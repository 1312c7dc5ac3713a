// Workload-compression microbenchmark: workload-DB footprint, raw
// per-execution rows versus per-template aggregates, and the analyzer's
// latency over the templates, at 1x/10x/100x execution volume over a
// fixed set of statement shapes.
// Emits BENCH_compress.json; tier1.sh gates on it against the committed
// baseline (template bytes at 100x must stay <= 25% of raw, and template
// analyzer latency must stay sublinear in execution volume).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/value.h"
#include "daemon/daemon.h"
#include "engine/database.h"
#include "ima/ima.h"

namespace imon::bench {
namespace {

// 12 distinct statement shapes (4 tables x 3 shapes); every execution
// carries a fresh literal, so the raw statement history grows with
// executions while the template history stays at 12 rows.
constexpr int kShapeTables = 4;
constexpr int kShapesPerTable = 3;
constexpr int kExecsPerShapeBase = 8;
constexpr int kAnalyzeRepeats = 5;
constexpr int kScales[] = {1, 10, 100};

struct ScaleResult {
  int64_t raw_rows = 0;
  int64_t template_rows = 0;
  double raw_bytes = 0;
  double template_bytes = 0;
  double template_latency_s = 0;
};

std::string Shape(int table, int shape, int64_t literal) {
  std::string t = "t";
  t += std::to_string(table);
  std::string lit = std::to_string(literal);
  switch (shape) {
    case 0:
      return "SELECT a FROM " + t + " WHERE a = " + lit;
    case 1:
      return "SELECT b FROM " + t + " WHERE b < " + lit;
    default:
      return "INSERT INTO " + t + " VALUES (" + lit + ", " + lit + ")";
  }
}

/// Serialized size of a table's full contents — the same row encoding
/// the daemon's bytes_written estimate uses, so raw/template footprints
/// are compared in one currency.
double TableBytes(engine::Database* db, const std::string& table) {
  engine::QueryResult r = MustExec(db, "SELECT * FROM " + table);
  int64_t bytes = 0;
  for (const Row& row : r.rows) {
    std::string serialized;
    SerializeRow(row, &serialized);
    bytes += static_cast<int64_t>(serialized.size());
  }
  return static_cast<double>(bytes);
}

int64_t CountRows(engine::Database* db, const std::string& table) {
  return MustExec(db, "SELECT count(*) FROM " + table).rows[0][0].AsInt();
}

/// Best-of-kAnalyzeRepeats wall-clock seconds for a full analysis pass
/// (one warm-up run first).
double AnalyzeLatency(engine::Database* monitored, engine::Database* wl) {
  {
    analyzer::Analyzer warm(monitored, wl);
    auto r = warm.Analyze();
    if (!r.ok()) {
      std::fprintf(stderr, "bench: analyze failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
  }
  double best = 1e30;
  for (int i = 0; i < kAnalyzeRepeats; ++i) {
    analyzer::Analyzer analyzer(monitored, wl);
    int64_t start = MonotonicNanos();
    auto r = analyzer.Analyze();
    double secs = static_cast<double>(MonotonicNanos() - start) / 1e9;
    if (!r.ok()) {
      std::fprintf(stderr, "bench: analyze failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    best = std::min(best, secs);
  }
  return best;
}

ScaleResult RunScale(int scale) {
  SimulatedClock clock(1000000);
  engine::DatabaseOptions monitored_opts;
  monitored_opts.name = "monitored";
  monitored_opts.clock = &clock;
  engine::Database monitored(monitored_opts);
  if (!ima::RegisterImaTables(&monitored).ok()) std::exit(1);

  engine::DatabaseOptions wl_opts;
  wl_opts.name = "workload";
  wl_opts.monitor.enabled = false;
  wl_opts.clock = &clock;
  engine::Database workload_db(wl_opts);

  daemon::DaemonConfig daemon_config;
  daemon_config.polls_per_flush = 1;
  // The bytes comparison needs the raw history complete: adaptive
  // sampling would shrink exactly the footprint being measured.
  daemon_config.flush_pressure_rows = 0;
  daemon::StorageDaemon daemon(&monitored, &workload_db, daemon_config,
                               &clock);
  if (!daemon.Initialize().ok()) std::exit(1);

  for (int t = 0; t < kShapeTables; ++t) {
    MustExec(&monitored,
             "CREATE TABLE t" + std::to_string(t) + " (a INT, b INT)");
  }
  const int execs_per_shape = kExecsPerShapeBase * scale;
  int64_t literal = 0;
  int since_poll = 0;
  for (int e = 0; e < execs_per_shape; ++e) {
    for (int t = 0; t < kShapeTables; ++t) {
      for (int s = 0; s < kShapesPerTable; ++s) {
        MustExec(&monitored, Shape(t, s, ++literal));
        // Poll well inside the monitor's statement window so the raw
        // history reaches the workload DB before eviction.
        if (++since_poll >= 512) {
          since_poll = 0;
          if (!daemon.PollOnce().ok()) std::exit(1);
        }
      }
    }
  }
  if (!daemon.PollOnce().ok()) std::exit(1);

  ScaleResult result;
  result.raw_rows = CountRows(&workload_db, "wl_statements");
  result.template_rows = CountRows(&workload_db, "wl_templates");
  result.raw_bytes = TableBytes(&workload_db, "wl_statements") +
                     TableBytes(&workload_db, "wl_workload");
  result.template_bytes = TableBytes(&workload_db, "wl_templates");
  result.template_latency_s = AnalyzeLatency(&monitored, &workload_db);
  return result;
}

int Main() {
  PrintHeader("micro_compression",
              "workload compression: raw rows vs per-template aggregates");

  std::vector<ScaleResult> results;
  std::printf("%-8s %10s %10s %12s %12s %12s\n", "scale", "raw rows",
              "templates", "raw bytes", "tmpl bytes", "tmpl ms");
  for (int scale : kScales) {
    ScaleResult r = RunScale(scale);
    std::printf("%-8d %10lld %10lld %12.0f %12.0f %12.3f\n", scale,
                static_cast<long long>(r.raw_rows),
                static_cast<long long>(r.template_rows), r.raw_bytes,
                r.template_bytes, r.template_latency_s * 1e3);
    results.push_back(r);
  }

  const ScaleResult& s1 = results.front();
  const ScaleResult& s100 = results.back();
  double bytes_ratio_100x = s100.template_bytes / s100.raw_bytes;
  double latency_growth = s100.template_latency_s / s1.template_latency_s;
  std::printf("bytes ratio at 100x (template/raw): %.4f\n", bytes_ratio_100x);
  std::printf("template latency growth 1x -> 100x: %.2fx "
              "(raw history grew %.0fx)\n",
              latency_growth,
              static_cast<double>(s100.raw_rows) /
                  static_cast<double>(s1.raw_rows));

  JsonWriter json("compress");
  for (size_t i = 0; i < results.size(); ++i) {
    std::string tag = std::to_string(kScales[i]) + "x";
    json.Metric("raw_rows_" + tag, static_cast<double>(results[i].raw_rows),
                "rows");
    json.Metric("template_rows_" + tag,
                static_cast<double>(results[i].template_rows), "rows");
    json.Metric("raw_bytes_" + tag, results[i].raw_bytes, "bytes");
    json.Metric("template_bytes_" + tag, results[i].template_bytes, "bytes");
    json.Metric("template_latency_ms_" + tag,
                results[i].template_latency_s * 1e3, "ms");
  }
  json.Metric("bytes_ratio_100x", bytes_ratio_100x, "ratio");
  json.Metric("template_latency_growth_100x", latency_growth, "x");
  json.Write();
  return 0;
}

}  // namespace
}  // namespace imon::bench

int main() { return imon::bench::Main(); }
