// Self-observability overhead: instrumentation-on vs compiled-out.
//
// Built twice by scripts/tier1.sh — once normally and once with
// -DIMON_METRICS=OFF (IMON_METRICS_DISABLED) — and run in both trees on
// the same fixed workload. The script compares the reported elapsed
// seconds and fails when the instrumented build is more than 5 % slower,
// continuously enforcing the paper's Fig. 4 claim that in-engine
// monitoring stays cheap.
//
// The workload is the monitor's worst case: high-rate primary-key point
// selects (every statement commits, traces five stages, and touches the
// buffer-pool/plan-cache counters) with the plan cache enabled so almost
// no time hides in parse/optimize.
//
// elapsed_s is the median of kRounds timed rounds of about a second each
// on an idle 4-core host: a neighbour's burst then moves one round, not
// the reported figure.

#include <algorithm>
#include <memory>

#include "bench/bench_util.h"
#include "ima/ima.h"
#include "workload/nref.h"

int main() {
  using namespace imon;
  using bench::MustExec;
  using bench::Scaled;

#ifdef IMON_METRICS_DISABLED
  const int metrics_compiled = 0;
#else
  const int metrics_compiled = 1;
#endif

  bench::PrintHeader("Observability overhead",
                     metrics_compiled
                         ? "metrics layer COMPILED IN (instrumented run)"
                         : "metrics layer COMPILED OUT (baseline run)");

  workload::NrefConfig nref;
  nref.proteins = Scaled(4000);
  nref.taxa = 100;
  const int64_t point_count = Scaled(60000);
  constexpr int kRounds = 7;

  engine::DatabaseOptions options;
  options.plan_cache_capacity = 256;
  auto db = std::make_unique<engine::Database>(options);
  if (!ima::RegisterImaTables(db.get()).ok()) return 1;
  if (!workload::SetupNref(db.get(), nref).ok()) {
    std::fprintf(stderr, "observability: NREF setup failed\n");
    return 1;
  }

  // Warm-up: populate the plan cache and the buffer pool.
  for (int64_t i = 0; i < 500; ++i) {
    MustExec(db.get(), workload::PointQuery(i % nref.proteins));
  }

  // The daemon samples every registered metric into the history rings
  // each poll; replay that cadence inside the timed loop (one full
  // registry sweep every kHistoryEvery statements) so the gate also
  // bounds the flight recorder's cost. Compiled out together with the
  // rest of the metrics layer in the baseline tree.
  constexpr int64_t kHistoryEvery = 500;
  metrics::MetricsHistory* history = db->metrics_history();
  int64_t history_samples = 0;

  std::vector<double> round_s;
  for (int round = 0; round < kRounds; ++round) {
    int64_t start = MonotonicNanos();
    for (int64_t i = 0; i < point_count; ++i) {
      MustExec(db.get(), workload::PointQuery(i % nref.proteins));
      if ((i + 1) % kHistoryEvery == 0) {
        history->Sample(*db->metrics(), db->clock()->NowMicros());
        ++history_samples;
      }
    }
    round_s.push_back(static_cast<double>(MonotonicNanos() - start) / 1e9);
    std::printf("round %d/%d: %.3f s\n", round + 1, kRounds, round_s.back());
  }
  std::nth_element(round_s.begin(), round_s.begin() + kRounds / 2,
                   round_s.end());
  double median = round_s[kRounds / 2];
  double stmts_per_sec = static_cast<double>(point_count) / median;

  std::printf("\n%lld point selects, median of %d rounds: %.3f s "
              "(%.0f statements/s)\n",
              static_cast<long long>(point_count), kRounds, median,
              stmts_per_sec);

  // Prove the telemetry is live (and SQL-reachable) in instrumented
  // builds: the same counters the gate is paying for.
  if (metrics_compiled != 0) {
    auto r = db->Execute(
        "SELECT name, value FROM imp_metrics WHERE value > 0");
    if (r.ok()) {
      std::printf("\nlive imp_metrics rows (value > 0): %zu\n",
                  r->rows.size());
    }
    std::printf("history: %lld registry sweeps, %zu live series\n",
                static_cast<long long>(history_samples),
                history->SeriesCount());
  }

  bench::JsonWriter json(metrics_compiled ? "observability"
                                          : "observability_baseline");
  json.Metric("elapsed_s", median, "s");
  json.Metric("statements_per_sec", stmts_per_sec, "1/s");
  json.Metric("metrics_compiled", metrics_compiled);
  json.Metric("history_samples", static_cast<double>(history_samples));
  json.Metric("history_series",
              static_cast<double>(history->SeriesCount()));
  json.Write();
  return 0;
}
