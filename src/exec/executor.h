// Query execution over physical plans.
//
// A plan tree runs as push-based, morsel-driven pipelines: a source
// scan's morsels flow through its filters and join probes into per-morsel
// sinks, which merge in morsel-index order. Pipelines break only at hash
// builds and nested-loop inners, which are gathered first, and at the
// final sort (DESIGN.md §11). Per-statement runtime counters feed the
// monitor's "actual costs" sensor.

#ifndef IMON_EXEC_EXECUTOR_H_
#define IMON_EXEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "exec/row_batch.h"
#include "exec/storage_layer.h"
#include "optimizer/binder.h"
#include "optimizer/plan.h"

namespace imon::metrics {
class Counter;
class Gauge;
class MetricsRegistry;
}

namespace imon::exec {

struct CompiledSelect;
class WorkerPool;

/// Pages per scan morsel. Morsel boundaries depend only on this and the
/// page chain — never on the worker count — so merged results are
/// bit-identical across worker counts.
inline constexpr size_t kDefaultMorselPages = 32;

/// Executor telemetry handles, resolved once from a registry so a scan
/// bumps its counters without a name lookup: `exec.parallel_scans.
/// <structure>` per source scan, `exec.morsels_total` by its morsel
/// count and the `exec.morsel_lanes` gauge.
struct ExecMetrics {
  /// Indexed by StorageLayer::ScanPlan::Kind.
  metrics::Counter* parallel_scans[5] = {};
  metrics::Counter* morsels_total = nullptr;
  metrics::Gauge* morsel_lanes = nullptr;

  static ExecMetrics Resolve(metrics::MetricsRegistry* registry);
};

/// Per-statement execution counters.
struct RuntimeStats {
  int64_t rows_examined = 0;  ///< tuples pulled through operators
  int64_t rows_output = 0;
};

struct ExecContext {
  StorageLayer* storage = nullptr;
  const std::vector<optimizer::BoundTable>* tables = nullptr;
  RuntimeStats stats;
  /// Rows per RowBatch on the vectorized path (tests force 1 to drive
  /// the batch-size differential).
  size_t batch_size = kDefaultBatchSize;
  /// Programs of the statement, from CompiledSelect::Compile over the
  /// same bound statement and plan. Required: every expression runs as a
  /// compiled program, and ExecuteSelect returns Internal when it is null.
  const CompiledSelect* compiled = nullptr;
  /// Worker pool the morsels of every pipeline (and the hash-join build
  /// chunks) run on. Null means one inline lane, exactly like a 1-lane
  /// pool: there is no separate serial path, so results are identical
  /// across worker counts.
  WorkerPool* workers = nullptr;
  /// Pages per morsel for parallel scans.
  size_t morsel_pages = kDefaultMorselPages;
  /// Telemetry handles resolved when the engine attached its metrics, or
  /// null.
  const ExecMetrics* exec_metrics = nullptr;
  /// Registry to resolve the handles from, once per statement, when
  /// `exec_metrics` is null (callers without an engine); or null.
  metrics::MetricsRegistry* metrics = nullptr;
};

/// Materialized query result.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

/// Execute a full bound SELECT: tree + aggregation + HAVING + ORDER BY +
/// DISTINCT + LIMIT + projection.
Result<ResultSet> ExecuteSelect(const optimizer::BoundSelect& bound,
                                const optimizer::PlanNode& plan,
                                ExecContext* ctx);

}  // namespace imon::exec

#endif  // IMON_EXEC_EXECUTOR_H_
