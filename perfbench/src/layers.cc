#include "layers.h"

#include <memory>
#include <utility>

#include "bench.h"
#include "common/clock.h"
#include "exec/executor.h"
#include "exec/expr_program.h"
#include "optimizer/binder.h"
#include "optimizer/planner.h"
#include "sql/normalizer.h"
#include "sql/parser.h"

namespace perfbench {

using imon::MonotonicNanos;

namespace {

/// Clock reads that only serve spans: skipped when not tracing.
class Spans {
 public:
  Spans(bool on, LayerRun* run) : on_(on), run_(run) {}
  bool on() const { return on_; }
  int64_t Now() const { return on_ ? MonotonicNanos() : 0; }
  void Add(const char* name, int64_t start, int64_t end) {
    if (on_) run_->spans.push_back({name, start, end});
  }

 private:
  bool on_;
  LayerRun* run_;
};

/// Sensors + Commit on a standalone monitor, as the engine calls them.
void ReplayMonitor(imon::monitor::Monitor* monitor, const std::string& sql,
                   const imon::optimizer::BoundSelect* bound,
                   const imon::optimizer::PlanSummary* summary,
                   int64_t plan_nanos, int64_t exec_nanos,
                   int64_t rows_examined, int64_t rows_output,
                   Spans* spans) {
  // Commit normalizes the text itself; a trace times that step on its own.
  int64_t t0 = spans->Now();
  if (spans->on()) imon::sql::NormalizeStatement(sql);
  int64_t t1 = spans->Now();
  spans->Add("sql.normalize", t0, t1);

  imon::monitor::QueryTrace trace;
  monitor->OnQueryStart(&trace, 1);
  monitor->OnParseComplete(&trace, sql);
  if (bound != nullptr) {
    const auto& refs = bound->references;
    monitor->OnBindComplete(
        &trace, {refs.tables.begin(), refs.tables.end()},
        {refs.attributes.begin(), refs.attributes.end()},
        {refs.available_indexes.begin(), refs.available_indexes.end()});
    monitor->OnOptimizeComplete(&trace, summary->est_cost_cpu,
                                summary->est_cost_io, summary->used_indexes,
                                plan_nanos, 0);
    monitor->OnExecuteComplete(&trace, exec_nanos, 0,
                               static_cast<double>(rows_examined),
                               rows_examined, rows_output);
  }
  monitor->Commit(&trace);
  spans->Add("monitor.commit", t1, spans->Now());
}

}  // namespace

LayerRun ReplaySelect(imon::engine::Database* db, const std::string& sql,
                      size_t planner_lanes, imon::exec::WorkerPool* pool,
                      imon::metrics::MetricsRegistry* metrics,
                      imon::monitor::Monitor* monitor, bool trace) {
  LayerRun run;
  Spans spans(trace, &run);
  // Plan and execute times feed the monitor's sensors, so those clock
  // reads stay without tracing, as in the engine.
  const bool sensor_clock = trace || monitor != nullptr;
  auto sensor_now = [&] { return sensor_clock ? MonotonicNanos() : 0; };
  int64_t t0 = spans.Now();
  auto parsed = imon::sql::Parse(sql);
  int64_t t1 = spans.Now();
  if (!parsed.ok() || (*parsed)->kind() != imon::sql::StatementKind::kSelect) {
    run.error = "parse: " + parsed.status().ToString();
    return run;
  }
  spans.Add("sql.parse", t0, t1);

  imon::optimizer::Binder binder(db->catalog());
  auto bound =
      binder.BindSelect(static_cast<imon::sql::SelectStmt*>(parsed->get()));
  int64_t t2 = sensor_now();
  if (!bound.ok()) {
    run.error = "bind: " + bound.status().ToString();
    return run;
  }
  spans.Add("optimizer.bind", t1, t2);

  imon::optimizer::Planner planner(
      db->catalog(), imon::optimizer::PlannerOptions{db->cost_model(), {},
                                                     planner_lanes, 32});
  auto plan = planner.PlanJoinTree(*bound);
  if (!plan.ok()) {
    run.error = "plan: " + plan.status().ToString();
    return run;
  }
  imon::optimizer::PlanSummary summary = planner.Summarize(**plan, *bound);
  int64_t t3 = sensor_now();
  spans.Add("optimizer.plan", t2, t3);

  auto compiled = imon::exec::CompiledSelect::Compile(*bound, **plan);
  int64_t t4 = sensor_now();
  if (!compiled.ok()) {
    run.error = "compile: " + compiled.status().ToString();
    return run;
  }
  spans.Add("exec.compile", t3, t4);

  imon::exec::ExecContext ctx;
  ctx.storage = db->storage_layer();
  ctx.tables = &bound->tables;
  ctx.batch_size = 1024;
  ctx.compiled = compiled->get();
  ctx.workers = pool;
  ctx.morsel_pages = 32;
  ctx.metrics = metrics;
  auto rs = imon::exec::ExecuteSelect(*bound, **plan, &ctx);
  int64_t t5 = sensor_now();
  if (!rs.ok()) {
    run.error = "execute: " + rs.status().ToString();
    return run;
  }
  spans.Add("exec.execute", t4, t5);
  run.rows_examined = ctx.stats.rows_examined;
  int64_t rows_output = static_cast<int64_t>(rs->rows.size());

  if (monitor != nullptr) {
    ReplayMonitor(monitor, sql, &*bound, &summary, t3 - t2, t5 - t4,
                  ctx.stats.rows_examined, rows_output, &spans);
  }
  run.digest = ResultDigest(rs->columns, rs->rows);
  run.ok = true;
  return run;
}

LayerRun ReplayWrite(const std::string& sql, imon::monitor::Monitor* monitor) {
  LayerRun run;
  Spans spans(true, &run);
  int64_t t0 = spans.Now();
  auto parsed = imon::sql::Parse(sql);
  int64_t t1 = spans.Now();
  if (!parsed.ok()) {
    run.error = "parse: " + parsed.status().ToString();
    return run;
  }
  spans.Add("sql.parse", t0, t1);
  ReplayMonitor(monitor, sql, nullptr, nullptr, 0, 0, 0, 0, &spans);
  run.ok = true;
  return run;
}

}  // namespace perfbench
