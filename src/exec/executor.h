// Query execution over physical plans.
//
// The executor is block-oriented: each plan node materializes its output
// rows (the engine is in-memory; intermediate results are bounded by the
// workloads we run). Per-statement runtime counters feed the monitor's
// "actual costs" sensor.

#ifndef IMON_EXEC_EXECUTOR_H_
#define IMON_EXEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "exec/row_batch.h"
#include "exec/storage_layer.h"
#include "optimizer/binder.h"
#include "optimizer/plan.h"

namespace imon::metrics {
class MetricsRegistry;
}

namespace imon::exec {

struct CompiledSelect;
class WorkerPool;

/// Pages per scan morsel. Morsel boundaries depend only on this and the
/// page chain — never on the worker count — so merged results are
/// bit-identical across worker counts.
inline constexpr size_t kDefaultMorselPages = 32;

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
  /// Compiled programs for the statement, or null to interpret the AST
  /// per row (the scalar fallback; also the benchmark baseline).
  const CompiledSelect* compiled = nullptr;
  /// Worker pool the morsels of every real-table scan (and the hash-join
  /// build chunks) run on. Null means one inline lane, exactly like a
  /// 1-lane pool: there is no separate serial path, so results are
  /// identical across worker counts.
  WorkerPool* workers = nullptr;
  /// Pages per morsel for parallel scans.
  size_t morsel_pages = kDefaultMorselPages;
  /// Registry for parallel-scan telemetry (`exec.morsels_total`,
  /// `exec.morsel_lanes`, `exec.parallel_scans.<structure>`), or null.
  metrics::MetricsRegistry* metrics = nullptr;
};

/// Materialized query result.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

/// Execute the scan/join tree; rows follow `plan.layout`.
Result<std::vector<Row>> ExecuteTree(const optimizer::PlanNode& plan,
                                     ExecContext* ctx);

/// Execute a full bound SELECT: tree + aggregation + HAVING + ORDER BY +
/// DISTINCT + LIMIT + projection.
Result<ResultSet> ExecuteSelect(const optimizer::BoundSelect& bound,
                                const optimizer::PlanNode& plan,
                                ExecContext* ctx);

}  // namespace imon::exec

#endif  // IMON_EXEC_EXECUTOR_H_
