// IMA — the management architecture layer (paper §IV-A).
//
// "The data that is collected in the DBMS core is stored in main memory
//  and is made available over the Ingres Management Architecture (IMA)
//  ... an extensible relational interface to read internal DBMS data
//  over standard SQL ... Because IMA objects reside only in main memory,
//  there is no disk access required to store or read the data."
//
// Each IMA table is defined once, as an ImaTable: its name, its columns
// and its seq column. RegisterTable() registers the one provider of a
// definition and a row function on a Database. The monitor's tables are
// defined below and registered by RegisterImaTables(); the storage daemon
// derives its workload-DB mirrors (wl_* = captured_at + the IMA columns,
// daemon.h) from the same list. The libraries whose state the remaining
// IMA tables expose define and register those tables beside that state:
//
//   imp_tuning_actions, imp_tuning_provenance  (tuner.cc) — the
//                    closed-loop tuner's live action list and the
//                    template evidence behind each analyzer decision
//   imp_alerts      (daemon.cc) — the daemon's history-rule alert states
//   imp_connections (server.cc) — every live network-server connection
//
// CreateTableSql() renders a definition as workload-DB DDL, so a
// persisted table (wl_*) is written from the same column list.
//
// Scans materialize a snapshot of in-memory state; no buffer-pool or
// disk access is involved.

#ifndef IMON_IMA_IMA_H_
#define IMON_IMA_IMA_H_

#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics_history.h"
#include "common/status.h"
#include "engine/database.h"

namespace imon::ima {

struct ImaColumn {
  const char* name;
  TypeId type;
};

/// The one definition of an IMA table.
struct ImaTable {
  const char* name;
  std::span<const ImaColumn> columns;
  /// Ordinal of the table's seq column, or -1. A seq is a monotone stamp
  /// (a record's sequence number, or a registry row's change stamp), so
  /// `WHERE seq > N` is pushed down and returns only rows added or
  /// changed since N (the daemon's cursored polls).
  int seq_column = -1;

  /// The provider's column layout: `columns` as catalog columns.
  std::vector<catalog::ColumnInfo> Schema() const;
};

namespace columns {

using enum TypeId;

/// seq is the row's change stamp, bumped on every frequency update.
inline constexpr ImaColumn kStatements[] = {
    {"hash", kInt}, {"query_text", kText}, {"frequency", kInt},
    {"first_seen", kInt}, {"last_seen", kInt}, {"seq", kInt}};
inline constexpr ImaColumn kWorkload[] = {
    {"seq", kInt}, {"hash", kInt}, {"start_micros", kInt},
    {"wallclock_nanos", kInt}, {"opt_cpu_nanos", kInt}, {"opt_disk_io", kInt},
    {"exec_cpu_nanos", kInt}, {"exec_disk_io", kInt}, {"est_cpu", kDouble},
    {"est_io", kDouble}, {"est_cost", kDouble}, {"actual_cost", kDouble},
    {"rows_examined", kInt}, {"rows_output", kInt}, {"monitor_nanos", kInt}};
/// object_type is table | attribute | index | used_index.
inline constexpr ImaColumn kReferences[] = {
    {"seq", kInt}, {"hash", kInt}, {"object_type", kText}, {"object_id", kInt},
    {"table_id", kInt}, {"ordinal", kInt}};
/// The compressed workload: one row per distinct statement shape, with
/// exact rolling cost sums and log2-histogram quantiles (optimizer cost
/// units); the reference lists are comma-joined ("1,2" / "1:0,1:2"). seq
/// is a change stamp, bumped on every execution.
inline constexpr ImaColumn kTemplates[] = {
    {"seq", kInt}, {"fingerprint", kInt}, {"template_text", kText},
    {"sample_hash", kInt}, {"sample_text", kText}, {"executions", kInt},
    {"sampled_count", kInt}, {"total_actual", kDouble},
    {"total_estimated", kDouble}, {"first_seen", kInt}, {"last_seen", kInt},
    {"ref_tables", kText}, {"ref_attrs", kText}, {"p50_actual", kDouble},
    {"p95_actual", kDouble}, {"p99_actual", kDouble},
    {"p50_estimated", kDouble}, {"p95_estimated", kDouble},
    {"p99_estimated", kDouble}};
inline constexpr ImaColumn kTables[] = {
    {"table_id", kInt}, {"table_name", kText}, {"frequency", kInt},
    {"storage", kText}, {"data_pages", kInt}, {"overflow_pages", kInt},
    {"row_count", kInt}};
inline constexpr ImaColumn kAttributes[] = {
    {"table_id", kInt}, {"ordinal", kInt}, {"attr_name", kText},
    {"frequency", kInt}, {"has_histogram", kInt}};
inline constexpr ImaColumn kIndexes[] = {
    {"index_id", kInt}, {"index_name", kText}, {"table_id", kInt},
    {"frequency", kInt}, {"pages", kInt}, {"is_unique", kInt}};
inline constexpr ImaColumn kStatistics[] = {
    {"seq", kInt}, {"time_micros", kInt}, {"current_sessions", kInt},
    {"max_sessions", kInt}, {"locks_held", kInt}, {"lock_waits", kInt},
    {"deadlocks", kInt}, {"cache_logical", kInt}, {"cache_physical", kInt},
    {"cache_hit_ratio", kDouble}, {"disk_reads", kInt}, {"disk_writes", kInt},
    {"statements", kInt}};
/// One row per commit shard: the monitor observing itself, including
/// ring-buffer saturation and the raw executions skipped by adaptive
/// sampling (template aggregates still count those exactly, so
/// SUM(executions - sampled_count) over imp_templates reconciles with
/// SUM(workload_sampled_out)).
inline constexpr ImaColumn kMonitor[] = {
    {"shard", kInt}, {"statements", kInt}, {"workload_dropped", kInt},
    {"references_dropped", kInt}, {"traces_dropped", kInt},
    {"monitor_nanos", kInt}, {"workload_sampled_out", kInt}};
/// Every registered counter and gauge of the engine's self-observability
/// registry (buffer pool, lock manager, plan cache, daemon, analyzer).
inline constexpr ImaColumn kMetrics[] = {
    {"name", kText}, {"kind", kText}, {"value", kInt}};
/// Latency histograms: the statement-path stages plus lock waits;
/// last_updated_micros stamps the most recent tick (0 = never), so alert
/// rules can detect stale stages.
inline constexpr ImaColumn kStageLatency[] = {
    {"name", kText}, {"count", kInt}, {"total_nanos", kInt},
    {"max_nanos", kInt}, {"p50_nanos", kInt}, {"p95_nanos", kInt},
    {"p99_nanos", kInt}, {"last_updated_micros", kInt}};
/// Per-statement stage spans (parse/bind/optimize/execute/commit),
/// exportable as Chrome trace events.
inline constexpr ImaColumn kTraces[] = {
    {"seq", kInt}, {"hash", kInt}, {"session_id", kInt}, {"stage", kText},
    {"start_micros", kInt}, {"duration_nanos", kInt}};
/// The flight recorder: every counter/gauge/histogram percentile the
/// daemon samples each poll into rings at 10s/1m/10m resolution
/// (~85min/~4.3h/48h retained); empty when metrics are compiled out. The
/// daemon persists completed 10s ticks into wl_metrics_history.
inline constexpr ImaColumn kMetricsHistory[] = {
    {"name", kText}, {"resolution", kInt}, {"tick_micros", kInt}, {"min", kInt},
    {"max", kInt}, {"sum", kInt}, {"count", kInt}, {"last", kInt}};

}  // namespace columns

/// Every table RegisterImaTables registers, in registration order.
inline constexpr ImaTable kImaTables[] = {
    {"imp_statements", columns::kStatements, 5},
    {"imp_workload", columns::kWorkload, 0},
    {"imp_references", columns::kReferences, 0},
    {"imp_templates", columns::kTemplates, 0},
    {"imp_tables", columns::kTables},
    {"imp_attributes", columns::kAttributes},
    {"imp_indexes", columns::kIndexes},
    {"imp_statistics", columns::kStatistics, 0},
    {"imp_monitor", columns::kMonitor},
    {"imp_metrics", columns::kMetrics},
    {"imp_stage_latency", columns::kStageLatency},
    {"imp_traces", columns::kTraces, 0},
    {"imp_metrics_history", columns::kMetricsHistory}};

/// The names of kImaTables, in the same order.
inline constexpr auto kImaTableNames =
    std::views::transform(kImaTables, &ImaTable::name);

/// The definition named `name`; a name that is not an IMA table fails to
/// compile in a constant expression and aborts at run time.
constexpr const ImaTable& FindImaTable(std::string_view name) {
  for (const ImaTable& t : kImaTables) {
    if (name == t.name) return t;
  }
  std::abort();
}

/// Ordinal of the column named `name` in `columns`; a missing name fails
/// to compile in a constant expression and aborts at run time.
constexpr int ColumnOrdinal(std::span<const ImaColumn> columns,
                            std::string_view name) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (name == columns[i].name) return static_cast<int>(i);
  }
  std::abort();
}

/// `CREATE TABLE IF NOT EXISTS <name> (...)` with the columns of `parts`,
/// in order.
std::string CreateTableSql(
    std::string_view name,
    std::initializer_list<std::span<const ImaColumn>> parts);

/// Produces a table's rows with seq > min_seq (tables without a seq
/// column ignore min_seq).
using RowsFn = std::function<std::vector<Row>(int64_t min_seq)>;

/// One row per record, built by `row`.
template <typename Record, typename RowOf>
std::vector<Row> Materialize(const std::vector<Record>& records, RowOf row) {
  std::vector<Row> out;
  out.reserve(records.size());
  for (const Record& r : records) out.push_back(row(r));
  return out;
}

/// Register `table` on `db` as a virtual table whose schema and seq column
/// come from the definition and whose rows come from `rows`. `table` must
/// outlive `db` (the definitions are constexpr statics).
Status RegisterTable(engine::Database* db, const ImaTable& table, RowsFn rows);

/// One imp_metrics_history row. The daemon builds its wl_metrics_history
/// rows with it too.
Row MetricsHistoryRow(const metrics::HistorySample& s);

/// Register every table of kImaTables on `db`. Idempotent per database
/// (second call returns AlreadyExists).
Status RegisterImaTables(engine::Database* db);

}  // namespace imon::ima

#endif  // IMON_IMA_IMA_H_
