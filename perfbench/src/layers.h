// Replay of one statement through each layer's public functions, timed
// per layer. Used by the traced run and by analytic_join's serial
// reference.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "engine/database.h"
#include "exec/worker_pool.h"
#include "monitor/monitor.h"

namespace perfbench {

/// One timed layer call (monotonic nanoseconds).
struct LayerSpan {
  const char* name;
  int64_t start;
  int64_t end;
};

struct LayerRun {
  bool ok = false;
  std::string error;
  uint64_t digest = 0;
  int64_t rows_examined = 0;
  std::vector<LayerSpan> spans;
};

/// SELECT: sql::Parse, Binder::BindSelect, Planner::PlanJoinTree +
/// Summarize, CompiledSelect::Compile and exec::ExecuteSelect over the
/// database's storage layer (`pool` null = serial). With `monitor`
/// set, also the monitor's sensors + Commit fed with the statement's
/// real bind/plan/execute data.
///
/// With `trace` set, each layer call is recorded as a span, and
/// sql::NormalizeStatement (which Commit runs inside) is timed on its own
/// beforehand. Without it the same calls run with only the clock reads
/// the monitor's sensors need, as the engine makes them, so the two
/// differ by what tracing adds.
LayerRun ReplaySelect(imon::engine::Database* db, const std::string& sql,
                      size_t planner_lanes, imon::exec::WorkerPool* pool,
                      imon::metrics::MetricsRegistry* metrics,
                      imon::monitor::Monitor* monitor, bool trace = false);

/// Writes, traced: sql::Parse, sql::NormalizeStatement and the monitor's
/// sensors + Commit (DML execution itself has no public per-layer entry
/// point).
LayerRun ReplayWrite(const std::string& sql, imon::monitor::Monitor* monitor);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
