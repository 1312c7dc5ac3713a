// Database engine facade: the full statement path
//   Execute -> Parse -> Bind -> Optimize -> Execute -> Result
// with the monitor's sensors wired at each stage (paper Fig. 2), DDL/DML
// dispatch, sessions + transactions, triggers, virtual tables and the
// what-if (virtual index) interface.

#ifndef IMON_ENGINE_DATABASE_H_
#define IMON_ENGINE_DATABASE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <unordered_map>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/metrics_history.h"
#include "common/status.h"
#include "exec/executor.h"
#include "exec/expr_program.h"
#include "exec/storage_layer.h"
#include "monitor/monitor.h"
#include "optimizer/planner.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "txn/lock_manager.h"

namespace imon::engine {

/// Hardware concurrency with a floor of 1 (hardware_concurrency() may
/// report 0 on exotic platforms).
inline size_t DefaultExecWorkers() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

inline size_t DefaultBufferPoolShards() { return 2 * DefaultExecWorkers(); }

struct DatabaseOptions {
  std::string name = "db";
  monitor::MonitorConfig monitor;
  size_t buffer_pool_pages = 8192;
  /// Busy-wait per physical page access; models a spinning disk.
  int64_t simulated_io_latency_nanos = 0;
  const Clock* clock = nullptr;  // defaults to RealClock
  optimizer::CostModel cost_model;
  std::chrono::milliseconds lock_timeout = std::chrono::seconds(10);
  /// Default heap main-page allocation for CREATE TABLE.
  uint32_t default_main_pages = 8;
  /// Statement/plan cache capacity (entries). 0 disables it — the
  /// default, matching the paper's prototype; enabling it is the
  /// "better caching strategy" extension the paper proposes for
  /// high-throughput simple statements.
  size_t plan_cache_capacity = 0;
  /// Rows gathered per executor batch on the vectorized scan path.
  size_t exec_batch_size = 1024;
  /// Unused: the engine reads no such option, every expression runs as
  /// a compiled ExprProgram. The field remains only because the
  /// benchmark driver (perfbench/src/bench.cc) assigns and prints every
  /// option; it goes with the next change to that driver (ROADMAP item 6).
  bool use_compiled_exprs = true;
  /// Executor lanes for morsel-parallel scans (caller + persistent
  /// workers) over every non-virtual access path — heap pages, B-Tree
  /// and secondary-index leaves, hash buckets, ISAM chains — plus the
  /// partitioned hash-join build. 1 = serial execution on the calling
  /// thread. Results are identical for every worker count.
  size_t exec_workers = DefaultExecWorkers();
  /// Units per scan morsel (the parallel-scan work unit; pages for heap
  /// scans, leaves/buckets/chains for the other structures). Morsel
  /// boundaries are independent of the worker count.
  size_t exec_morsel_pages = exec::kDefaultMorselPages;
  /// Buffer pool shards (page-id hash partitioned, each with its own
  /// mutex/page-table/free-list). The pool clamps it so every shard
  /// holds at least storage::BufferPool::kMinFramesPerShard frames.
  size_t buffer_pool_shards = DefaultBufferPoolShards();
};

/// Reject out-of-range options (zero exec_batch_size / exec_workers /
/// exec_morsel_pages / buffer_pool_shards / buffer_pool_pages) with a
/// descriptive Status. Database::Open runs this; the plain constructor
/// instead clamps invalid values to safe minimums.
Status ValidateDatabaseOptions(const DatabaseOptions& options);

struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t invalidations = 0;
  int64_t entries = 0;
};

/// Per-statement numbers surfaced with every result (the same numbers the
/// monitor records).
struct ExecStats {
  double estimated_cost = 0;
  double estimated_cpu = 0;
  double estimated_io = 0;
  double estimated_rows = 0;
  double actual_cost = 0;
  int64_t wallclock_nanos = 0;
  int64_t physical_reads = 0;
  int64_t rows_examined = 0;
  std::vector<catalog::ObjectId> used_indexes;
  std::string plan_text;
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  int64_t affected_rows = 0;
  std::string message;  ///< DDL acknowledgements
  ExecStats stats;
};

/// Raised by AFTER INSERT triggers (the daemon's DBA alerting mechanism).
struct AlertEvent {
  std::string trigger_name;
  std::string table;
  std::string message;
  Row row;
};
using AlertHandler = std::function<void(const AlertEvent&)>;

/// Result of a what-if planning call.
struct WhatIfResult {
  optimizer::PlanSummary summary;
  /// Virtual indexes the optimizer chose to use.
  std::vector<catalog::ObjectId> virtual_indexes_used;
};

class Database;
class StatementPipeline;

/// One client connection. Statements run in autocommit unless BEGIN was
/// issued; locks are held to transaction end; a failed statement undoes
/// its own row changes, and ROLLBACK undoes the transaction's.
class Session {
 public:
  int64_t id() const { return id_; }
  bool in_transaction() const { return txn_active_; }
  /// Internal sessions (the storage daemon's IMA polling) bypass the
  /// monitor so self-observation does not flood the statement history.
  void set_internal(bool on) { internal_ = on; }
  bool internal() const { return internal_; }

 private:
  friend class Database;
  friend class StatementPipeline;

  /// The trace for a statement starting at the current nesting depth.
  /// A statement run from inside another on this session (say, from an
  /// alert handler during an INSERT) gets the next level's trace, so the
  /// outer statement's trace is left intact.
  monitor::QueryTrace& AcquireTrace() {
    if (trace_depth_ == traces_.size()) {
      traces_.push_back(std::make_unique<monitor::QueryTrace>());
    }
    return *traces_[trace_depth_++];
  }
  void ReleaseTrace() { --trace_depth_; }

  struct UndoEntry {
    enum class Op { kInsert, kDelete, kUpdate } op;
    catalog::ObjectId table_id;
    exec::Locator locator;      // resulting locator
    Row row;                    // inserted/new row
    exec::Locator old_locator;  // for update/delete
    Row old_row;
  };
  int64_t id_ = 0;
  int64_t txn_id_ = 0;
  bool internal_ = false;
  bool txn_active_ = false;
  /// True when the transaction was started implicitly for one statement;
  /// the StatementPipeline that opened it ends it.
  bool txn_implicit_ = false;
  std::vector<UndoEntry> undo_;
  /// One trace per nesting level, kept across statements.
  std::vector<std::unique_ptr<monitor::QueryTrace>> traces_;
  size_t trace_depth_ = 0;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  /// Validating factory: returns InvalidArgument instead of silently
  /// clamping bad options.
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options = {});

  /// Execute one SQL statement on this thread's implicit session. Each
  /// calling thread is lazily assigned its own session, so concurrent
  /// Execute(sql) callers never serialize on a shared connection.
  Result<QueryResult> Execute(const std::string& sql);
  Result<QueryResult> Execute(const std::string& sql, Session* session);

  std::unique_ptr<Session> CreateSession();
  /// A session with the internal flag already set: its statements bypass
  /// the monitor entirely. The storage daemon's IMA polling and the
  /// tuner's DDL apply/rollback path run through these, so the control
  /// loop's own activity never pollutes the workload it is tuning on.
  std::unique_ptr<Session> CreateInternalSession();
  /// Open session count (monitored statistic).
  int64_t active_sessions() const;

  /// Plan a SELECT with hypothetical indexes injected; never executes and
  /// never pollutes the monitor's workload data.
  Result<WhatIfResult> WhatIfPlan(
      const std::string& select_sql,
      const std::vector<catalog::IndexInfo>& virtual_indexes);

  Status RegisterVirtualTable(
      const std::string& name,
      std::shared_ptr<catalog::VirtualTableProvider> provider);

  void SetAlertHandler(AlertHandler handler);

  /// Current system counters (sampled into the monitor's statistics
  /// table by the engine and the daemon).
  PlanCacheStats plan_cache_stats() const;

  monitor::SystemSnapshot GatherSystemSnapshot() const;
  /// Force one statistics sample now.
  void SampleSystemStats();

  /// Total pages across all table + index files (database size on disk).
  int64_t TotalDataPages() const;
  int64_t DataSizeBytes() const {
    return TotalDataPages() * static_cast<int64_t>(storage::kPageSize);
  }

  catalog::Catalog* catalog() { return &catalog_; }
  const catalog::Catalog* catalog() const { return &catalog_; }
  monitor::Monitor* monitor() { return monitor_.get(); }
  /// Engine-wide self-observability registry (imp_metrics /
  /// imp_stage_latency). Subsystems attach at construction.
  metrics::MetricsRegistry* metrics() { return &metrics_; }
  const metrics::MetricsRegistry* metrics() const { return &metrics_; }
  /// Multi-resolution time-series rings over the registry
  /// (imp_metrics_history). The daemon samples into it each poll.
  metrics::MetricsHistory* metrics_history() { return &metrics_history_; }
  const metrics::MetricsHistory* metrics_history() const {
    return &metrics_history_;
  }
  exec::StorageLayer* storage_layer() { return storage_.get(); }
  txn::LockManager* lock_manager() { return &locks_; }
  storage::BufferPool* buffer_pool() { return pool_.get(); }
  storage::DiskManager* disk() { return disk_.get(); }
  const Clock* clock() const { return clock_; }
  const optimizer::CostModel& cost_model() const {
    return options_.cost_model;
  }

 private:
  friend class StatementPipeline;

  /// A fully bound + planned SELECT, reusable while the catalog version
  /// is unchanged. The parsed statement owns every expression the bound
  /// structures point into.
  struct CachedPlan {
    int64_t catalog_version = 0;
    sql::StatementPtr stmt;
    optimizer::BoundSelect bound;
    std::unique_ptr<optimizer::PlanNode> plan;
    optimizer::PlanSummary summary;
    /// Expression programs compiled once at plan time and replayed on
    /// every cache hit; never null in a planned entry.
    std::shared_ptr<const exec::CompiledSelect> compiled;
    /// Template fingerprint of the statement text, taken from its tokens
    /// when the entry is filled, whatever the session, so a monitored hit
    /// publishes it without lexing the text.
    uint64_t fingerprint = 0;
  };

  std::shared_ptr<const CachedPlan> LookupPlanCache(uint64_t hash);
  void StorePlanCache(uint64_t hash, std::shared_ptr<const CachedPlan> entry);

  /// The session implicitly bound to the calling thread (created on
  /// first use; stable for the thread's lifetime so BEGIN/COMMIT state
  /// stays with the thread that opened it).
  Session* BorrowThreadSession();

  /// Bind sensor over the binder's references: the sets are copied
  /// straight into the trace's vectors, and only for a live trace.
  void RecordBind(monitor::QueryTrace* trace,
                  const optimizer::ReferenceSet& refs);

  /// Planner options from the engine's options (no virtual indexes).
  optimizer::PlannerOptions planner_options() const;

  /// Bind, plan, summarize and compile a SELECT into `out` (all but its
  /// `stmt` and `fingerprint`), feeding the bind and optimize sensors.
  /// The one planning path: the uncached SELECT runs it, and the
  /// pipeline runs it and then stores `out` in the plan cache. Optimizer
  /// time and I/O are both measured across planning; a plan-cache hit
  /// does not plan and reports 0 for both.
  Status PlanSelect(sql::SelectStmt* stmt, monitor::QueryTrace* trace,
                    CachedPlan* out);

  /// Lock, execute and monitor a planned SELECT (shared by the cached
  /// and uncached paths).
  Result<QueryResult> RunPlannedSelect(const CachedPlan& planned,
                                       Session* session,
                                       monitor::QueryTrace* trace);

  struct TriggerDef {
    std::string name;
    catalog::ObjectId table_id;
    std::string table_name;
    exec::ExprProgram when;  // compiled against the table's row layout
    std::string message;
  };

  // -- statement dispatch ---------------------------------------------------
  Result<QueryResult> Dispatch(sql::Statement* stmt, Session* session,
                               monitor::QueryTrace* trace);
  Result<QueryResult> ExecSelect(sql::SelectStmt* stmt, Session* session,
                                 monitor::QueryTrace* trace);
  Result<QueryResult> ExecExplain(sql::ExplainStmt* stmt, Session* session);
  Result<QueryResult> ExecInsert(sql::InsertStmt* stmt, Session* session,
                                 monitor::QueryTrace* trace);
  Result<QueryResult> ExecUpdate(sql::UpdateStmt* stmt, Session* session,
                                 monitor::QueryTrace* trace);
  Result<QueryResult> ExecDelete(sql::DeleteStmt* stmt, Session* session,
                                 monitor::QueryTrace* trace);
  Result<QueryResult> ExecCreateTable(sql::CreateTableStmt* stmt);
  Result<QueryResult> ExecDropTable(sql::DropTableStmt* stmt);
  Result<QueryResult> ExecCreateIndex(sql::CreateIndexStmt* stmt,
                                      Session* session);
  Result<QueryResult> ExecDropIndex(sql::DropIndexStmt* stmt);
  Result<QueryResult> ExecModify(sql::ModifyStmt* stmt, Session* session);
  Result<QueryResult> ExecAnalyze(sql::AnalyzeStmt* stmt, Session* session);
  Result<QueryResult> ExecCreateTrigger(sql::CreateTriggerStmt* stmt);
  Result<QueryResult> ExecDropTrigger(sql::DropTriggerStmt* stmt);
  Result<QueryResult> ExecBegin(Session* session);
  Result<QueryResult> ExecCommit(Session* session);
  Result<QueryResult> ExecRollback(Session* session);

  // -- helpers ---------------------------------------------------------------
  /// Acquire a table lock for the session's transaction; starts an
  /// implicit txn in autocommit mode (the statement scope ends it).
  Status LockTable(Session* session, catalog::ObjectId table_id,
                   txn::LockMode mode);
  /// Release the transaction's locks and forget its undo log.
  void ReleaseTxn(Session* session);

  /// Apply the undo log in reverse down to `mark` entries (0 for rollback
  /// and deadlock abort, the statement's mark for a failed statement). A
  /// mark above the log's size undoes nothing.
  Status UndoTo(Session* session, size_t mark);

  /// Matching (locator, row) pairs for a single-table plan (DML targets).
  Result<std::vector<std::pair<exec::Locator, Row>>> CollectTargets(
      const optimizer::PlanNode& scan, const optimizer::BoundTable& table);

  /// Compile and evaluate an INSERT VALUES row into table order, casting
  /// to column types and checking NOT NULL.
  Result<Row> BuildInsertRow(const sql::InsertStmt& stmt,
                             const catalog::TableInfo& table,
                             const std::vector<sql::ExprPtr>& exprs,
                             exec::EvalScratch* scratch);

  /// Fire AFTER INSERT triggers for a newly inserted row.
  Status FireTriggers(const catalog::TableInfo& table, const Row& row);

  /// Non-virtual indexes on a table.
  std::vector<catalog::IndexInfo> TableIndexes(
      const catalog::TableInfo& table) const;

  /// Update catalog row-count bookkeeping after DML.
  Status BumpRowCount(catalog::ObjectId table_id, int64_t delta);

  /// Measured "actual cost" in optimizer cost units: physical page I/O +
  /// tuples processed, weighted by the cost model.
  double ActualCost(int64_t physical_io, int64_t rows_examined) const;

  void MaybeSampleStats();

  DatabaseOptions options_;
  const Clock* clock_;
  /// Declared before every subsystem that holds handles into it, so it
  /// is destroyed after them.
  metrics::MetricsRegistry metrics_;
  metrics::MetricsHistory metrics_history_;
  std::unique_ptr<storage::DiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  catalog::Catalog catalog_;
  txn::LockManager locks_;
  std::unique_ptr<exec::StorageLayer> storage_;
  std::unique_ptr<exec::WorkerPool> workers_;
  std::unique_ptr<monitor::Monitor> monitor_;

  std::mutex trigger_mutex_;
  std::vector<TriggerDef> triggers_;
  AlertHandler alert_handler_;

  std::atomic<int64_t> next_session_id_{1};
  std::atomic<int64_t> next_txn_id_{1};
  std::atomic<int64_t> open_sessions_{0};

  /// Implicit per-thread sessions for the Execute(sql) convenience
  /// overload. Keyed by thread id so a thread always reuses the same
  /// session (transaction affinity); the pool mutex guards only the map,
  /// not statement execution.
  std::mutex session_pool_mutex_;
  std::unordered_map<std::thread::id, std::unique_ptr<Session>>
      thread_sessions_;

  /// Plan cache, striped by statement hash so concurrent sessions with
  /// disjoint working sets do not contend on one mutex. Capacity is
  /// split evenly across stripes (rounded up); FIFO eviction per stripe.
  static constexpr size_t kPlanCacheStripes = 8;
  struct PlanCacheStripe {
    mutable std::mutex mutex;
    std::unordered_map<uint64_t, std::shared_ptr<const CachedPlan>> entries;
    std::deque<uint64_t> fifo;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t invalidations = 0;
    /// imp_metrics mirrors (plan_cache.stripe<i>.*); null when the cache
    /// is disabled.
    metrics::Counter* m_hits = nullptr;
    metrics::Counter* m_misses = nullptr;
    metrics::Counter* m_invalidations = nullptr;
  };
  PlanCacheStripe& StripeFor(uint64_t hash) {
    return plan_cache_stripes_[hash % kPlanCacheStripes];
  }
  std::array<PlanCacheStripe, kPlanCacheStripes> plan_cache_stripes_;
};

}  // namespace imon::engine

#endif  // IMON_ENGINE_DATABASE_H_
