#include "engine/database.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "catalog/histogram.h"
#include "engine/statement_pipeline.h"
#include "exec/worker_pool.h"

namespace imon::engine {

using catalog::IndexInfo;
using catalog::ObjectId;
using catalog::StorageStructure;
using catalog::TableInfo;
using exec::Locator;
using optimizer::Binder;
using optimizer::BoundSelect;
using optimizer::BoundTable;
using optimizer::OutputLayout;
using optimizer::Planner;
using optimizer::PlannerOptions;
using optimizer::PlanNode;
using optimizer::PlanSummary;

namespace {

int64_t DiskIoTotal(const storage::DiskStats& s) {
  return s.physical_reads + s.physical_writes;
}

/// The constructor's check: invalid options stop the process with
/// ValidateDatabaseOptions' message (Database::Open returns it instead).
DatabaseOptions CheckedOptions(DatabaseOptions o) {
  Status valid = ValidateDatabaseOptions(o);
  if (!valid.ok()) {
    std::fprintf(stderr, "Database: %s\n", valid.ToString().c_str());
    std::abort();
  }
  return o;
}

}  // namespace

Status ValidateDatabaseOptions(const DatabaseOptions& options) {
  if (options.buffer_pool_pages == 0) {
    return Status::InvalidArgument(
        "DatabaseOptions::buffer_pool_pages must be >= 1");
  }
  if (options.buffer_pool_shards == 0) {
    return Status::InvalidArgument(
        "DatabaseOptions::buffer_pool_shards must be >= 1");
  }
  if (options.exec_batch_size == 0) {
    return Status::InvalidArgument(
        "DatabaseOptions::exec_batch_size must be >= 1");
  }
  if (options.exec_workers == 0) {
    return Status::InvalidArgument(
        "DatabaseOptions::exec_workers must be >= 1");
  }
  if (options.exec_morsel_pages == 0) {
    return Status::InvalidArgument(
        "DatabaseOptions::exec_morsel_pages must be >= 1");
  }
  return Status::OK();
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  IMON_RETURN_IF_ERROR(ValidateDatabaseOptions(options));
  return std::make_unique<Database>(std::move(options));
}

Database::Database(DatabaseOptions options)
    : options_(CheckedOptions(std::move(options))),
      clock_(options_.clock != nullptr ? options_.clock
                                       : RealClock::Instance()),
      disk_(std::make_unique<storage::DiskManager>(
          options_.simulated_io_latency_nanos)),
      pool_(std::make_unique<storage::BufferPool>(
          disk_.get(), options_.buffer_pool_pages,
          options_.buffer_pool_shards)),
      locks_(options_.lock_timeout),
      storage_(std::make_unique<exec::StorageLayer>(disk_.get(), pool_.get())),
      workers_(std::make_unique<exec::WorkerPool>(options_.exec_workers)),
      monitor_(std::make_unique<monitor::Monitor>(options_.monitor, clock_)) {
  // Wire every subsystem into the self-observability registry before any
  // statement can run (the handles are then read without synchronization).
  monitor_->AttachMetrics(&metrics_);
  pool_->AttachMetrics(&metrics_);
  locks_.AttachMetrics(&metrics_);
  workers_->AttachMetrics(&metrics_);
  exec_metrics_ = exec::ExecMetrics::Resolve(&metrics_);
  if (options_.plan_cache_capacity > 0) {
    const size_t per_stripe =
        (options_.plan_cache_capacity + kPlanCacheStripes - 1) /
        kPlanCacheStripes;
    for (size_t i = 0; i < kPlanCacheStripes; ++i) {
      plan_cache_stripes_[i].plans =
          KeyedWindow<std::shared_ptr<const CachedPlan>>(per_stripe);
      std::string prefix = "plan_cache.stripe" + std::to_string(i);
      plan_cache_stripes_[i].m_hits = metrics_.GetCounter(prefix + ".hits");
      plan_cache_stripes_[i].m_misses =
          metrics_.GetCounter(prefix + ".misses");
      plan_cache_stripes_[i].m_invalidations =
          metrics_.GetCounter(prefix + ".invalidations");
    }
  }
}

Database::~Database() = default;

std::unique_ptr<Session> Database::CreateSession() {
  auto session = std::unique_ptr<Session>(new Session());
  session->id_ = next_session_id_.fetch_add(1);
  open_sessions_.fetch_add(1);
  monitor_->NoteSessionCount(open_sessions_.load());
  return session;
}

std::unique_ptr<Session> Database::CreateInternalSession() {
  auto session = CreateSession();
  session->set_internal(true);
  return session;
}

int64_t Database::active_sessions() const { return open_sessions_.load(); }

Session* Database::BorrowThreadSession() {
  std::lock_guard<std::mutex> lock(session_pool_mutex_);
  auto& slot = thread_sessions_[std::this_thread::get_id()];
  if (slot == nullptr) slot = CreateSession();
  return slot.get();
}

Result<QueryResult> Database::Execute(const std::string& sql) {
  return Execute(sql, BorrowThreadSession());
}

Result<QueryResult> Database::Execute(const std::string& sql,
                                      Session* session) {
  StatementPipeline pipeline(this, session);
  return pipeline.Run(sql);
}

void Database::RecordBind(monitor::QueryTrace* trace,
                          const optimizer::ReferenceSet& refs) {
  monitor_->OnBindComplete(trace, refs.tables, refs.attributes,
                           refs.available_indexes);
}

std::shared_ptr<const Database::CachedPlan> Database::LookupPlanCache(
    uint64_t hash) {
  PlanCacheStripe& stripe = StripeFor(hash);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  std::shared_ptr<const CachedPlan>* plan = stripe.plans.Find(hash);
  if (plan == nullptr || *plan == nullptr) {
    ++stripe.misses;
    if (stripe.m_misses != nullptr) stripe.m_misses->Add();
    return nullptr;
  }
  if ((*plan)->catalog_version != catalog_.version()) {
    plan->reset();
    ++stripe.invalidations;
    ++stripe.misses;
    if (stripe.m_invalidations != nullptr) stripe.m_invalidations->Add();
    if (stripe.m_misses != nullptr) stripe.m_misses->Add();
    return nullptr;
  }
  ++stripe.hits;
  if (stripe.m_hits != nullptr) stripe.m_hits->Add();
  return *plan;
}

void Database::StorePlanCache(uint64_t hash,
                              std::shared_ptr<const CachedPlan> entry) {
  PlanCacheStripe& stripe = StripeFor(hash);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  std::shared_ptr<const CachedPlan>* plan = stripe.plans.Find(hash);
  if (plan == nullptr) plan = &stripe.plans.Insert(hash);
  *plan = std::move(entry);
}

PlanCacheStats Database::plan_cache_stats() const {
  PlanCacheStats out;
  for (const PlanCacheStripe& stripe : plan_cache_stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    out.hits += stripe.hits;
    out.misses += stripe.misses;
    out.invalidations += stripe.invalidations;
    for (const auto& [hash, plan] : stripe.plans.slots()) {
      out.entries += plan != nullptr;
    }
  }
  return out;
}

Result<QueryResult> Database::Dispatch(sql::Statement* stmt, Session* session,
                                       monitor::QueryTrace* trace) {
  switch (stmt->kind()) {
    case sql::StatementKind::kSelect:
      return ExecSelect(static_cast<sql::SelectStmt*>(stmt), session, trace);
    case sql::StatementKind::kExplain:
      return ExecExplain(static_cast<sql::ExplainStmt*>(stmt), session);
    case sql::StatementKind::kInsert:
      return ExecInsert(static_cast<sql::InsertStmt*>(stmt), session, trace);
    case sql::StatementKind::kUpdate:
      return ExecUpdate(static_cast<sql::UpdateStmt*>(stmt), session, trace);
    case sql::StatementKind::kDelete:
      return ExecDelete(static_cast<sql::DeleteStmt*>(stmt), session, trace);
    case sql::StatementKind::kCreateTable:
      return ExecCreateTable(static_cast<sql::CreateTableStmt*>(stmt));
    case sql::StatementKind::kDropTable:
      return ExecDropTable(static_cast<sql::DropTableStmt*>(stmt));
    case sql::StatementKind::kCreateIndex:
      return ExecCreateIndex(static_cast<sql::CreateIndexStmt*>(stmt),
                             session);
    case sql::StatementKind::kDropIndex:
      return ExecDropIndex(static_cast<sql::DropIndexStmt*>(stmt));
    case sql::StatementKind::kModify:
      return ExecModify(static_cast<sql::ModifyStmt*>(stmt), session);
    case sql::StatementKind::kAnalyze:
      return ExecAnalyze(static_cast<sql::AnalyzeStmt*>(stmt), session);
    case sql::StatementKind::kCreateTrigger:
      return ExecCreateTrigger(static_cast<sql::CreateTriggerStmt*>(stmt));
    case sql::StatementKind::kDropTrigger:
      return ExecDropTrigger(static_cast<sql::DropTriggerStmt*>(stmt));
    case sql::StatementKind::kBegin:
      return ExecBegin(session);
    case sql::StatementKind::kCommit:
      return ExecCommit(session);
    case sql::StatementKind::kRollback:
      return ExecRollback(session);
  }
  return Status::Internal("unhandled statement kind");
}

// ---------------------------------------------------------------------------
// Transactions & locking
// ---------------------------------------------------------------------------

Status Database::LockTable(Session* session, ObjectId table_id,
                           txn::LockMode mode) {
  if (!session->txn_active_) {
    session->txn_active_ = true;
    session->txn_implicit_ = true;
    session->txn_id_ = next_txn_id_.fetch_add(1);
  }
  Status s = locks_.Acquire(session->txn_id_, table_id, mode);
  if (s.IsAborted()) {
    // Deadlock victim: roll back the whole transaction and release.
    UndoTo(session, 0).ok();
    ReleaseTxn(session);
  }
  return s;
}

void Database::ReleaseTxn(Session* session) {
  locks_.ReleaseAll(session->txn_id_);
  session->txn_active_ = false;
  session->txn_implicit_ = false;
  session->undo_.clear();
}

Status Database::UndoTo(Session* session, size_t mark) {
  Status first_error = Status::OK();
  // A deadlock victim's abort may already have emptied the log below the
  // mark; then there is nothing left to undo.
  for (; session->undo_.size() > mark; session->undo_.pop_back()) {
    const Session::UndoEntry& e = session->undo_.back();
    auto table = catalog_.GetTableById(e.table_id);
    if (!table.ok()) {
      if (first_error.ok()) first_error = table.status();
      continue;
    }
    std::vector<IndexInfo> indexes = TableIndexes(*table);
    Status s;
    switch (e.op) {
      case Session::UndoEntry::Op::kInsert:
        s = storage_->Delete(*table, indexes, e.locator, e.row);
        if (s.ok()) BumpRowCount(e.table_id, -1).ok();
        break;
      case Session::UndoEntry::Op::kDelete: {
        auto loc = storage_->Insert(*table, indexes, e.old_row);
        s = loc.status();
        if (s.ok()) BumpRowCount(e.table_id, 1).ok();
        break;
      }
      case Session::UndoEntry::Op::kUpdate:
        s = storage_->Update(*table, indexes, e.locator, e.row, e.old_row)
                .status();
        break;
    }
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

Result<QueryResult> Database::ExecBegin(Session* session) {
  if (session->txn_active_) {
    return Status::InvalidArgument("transaction already in progress");
  }
  session->txn_active_ = true;
  session->txn_id_ = next_txn_id_.fetch_add(1);
  QueryResult out;
  out.message = "BEGIN";
  return out;
}

Result<QueryResult> Database::ExecCommit(Session* session) {
  // An implicit transaction belongs to the statement that opened it, even
  // when this COMMIT runs nested inside that statement.
  if (!session->txn_active_ || session->txn_implicit_) {
    return Status::InvalidArgument("no transaction in progress");
  }
  ReleaseTxn(session);
  QueryResult out;
  out.message = "COMMIT";
  return out;
}

Result<QueryResult> Database::ExecRollback(Session* session) {
  if (!session->txn_active_ || session->txn_implicit_) {
    return Status::InvalidArgument("no transaction in progress");
  }
  Status undo = UndoTo(session, 0);
  ReleaseTxn(session);
  IMON_RETURN_IF_ERROR(undo);
  QueryResult out;
  out.message = "ROLLBACK";
  return out;
}

// ---------------------------------------------------------------------------
// SELECT / EXPLAIN / what-if
// ---------------------------------------------------------------------------

PlannerOptions Database::planner_options() const {
  return PlannerOptions{options_.cost_model, {}, options_.exec_workers,
                        options_.exec_morsel_pages};
}

Status Database::PlanSelect(sql::SelectStmt* stmt, monitor::QueryTrace* trace,
                            CachedPlan* out) {
  out->catalog_version = catalog_.version();
  Binder binder(&catalog_);
  IMON_ASSIGN_OR_RETURN(out->bound, binder.BindSelect(stmt));
  RecordBind(trace, out->bound.references);

  // Optimize (timed, I/O-accounted).
  int64_t opt_start = MonotonicNanos();
  int64_t opt_io_before = DiskIoTotal(disk_->stats());
  Planner planner(&catalog_, planner_options());
  IMON_ASSIGN_OR_RETURN(out->plan, planner.PlanJoinTree(out->bound));
  out->summary = planner.Summarize(*out->plan, out->bound);
  int64_t opt_nanos = MonotonicNanos() - opt_start;
  int64_t opt_io = DiskIoTotal(disk_->stats()) - opt_io_before;
  monitor_->OnOptimizeComplete(trace, out->summary.est_cost_cpu,
                               out->summary.est_cost_io,
                               out->summary.used_indexes, opt_nanos, opt_io);

  IMON_ASSIGN_OR_RETURN(out->compiled,
                        exec::CompiledSelect::Compile(out->bound, *out->plan));
  return Status::OK();
}

Result<QueryResult> Database::ExecSelect(sql::SelectStmt* stmt,
                                         Session* session,
                                         monitor::QueryTrace* trace) {
  CachedPlan planned;
  IMON_RETURN_IF_ERROR(PlanSelect(stmt, trace, &planned));
  return RunPlannedSelect(planned, session, trace);
}

Result<QueryResult> Database::RunPlannedSelect(const CachedPlan& planned,
                                               Session* session,
                                               monitor::QueryTrace* trace) {
  const BoundSelect& bound = planned.bound;
  const PlanSummary& summary = planned.summary;
  // Lock referenced base tables (shared).
  for (const BoundTable& bt : bound.tables) {
    if (bt.is_virtual) continue;
    IMON_RETURN_IF_ERROR(LockTable(session, bt.info.id, txn::LockMode::kShared));
  }

  int64_t exec_start = MonotonicNanos();
  int64_t io_before = DiskIoTotal(disk_->stats());
  exec::ExecContext ctx;
  ctx.storage = storage_.get();
  ctx.tables = &bound.tables;
  ctx.batch_size = options_.exec_batch_size;
  ctx.compiled = planned.compiled.get();
  ctx.workers = workers_.get();
  ctx.morsel_pages = options_.exec_morsel_pages;
  ctx.exec_metrics = &exec_metrics_;
  auto rs = exec::ExecuteSelect(bound, *planned.plan, &ctx);
  int64_t exec_nanos = MonotonicNanos() - exec_start;
  int64_t exec_io = DiskIoTotal(disk_->stats()) - io_before;
  IMON_RETURN_IF_ERROR(rs.status());

  double actual = ActualCost(exec_io, ctx.stats.rows_examined);
  monitor_->OnExecuteComplete(trace, exec_nanos, exec_io, actual,
                              ctx.stats.rows_examined, ctx.stats.rows_output);

  QueryResult out;
  out.columns = std::move(rs->columns);
  out.rows = std::move(rs->rows);
  out.stats.estimated_cpu = summary.est_cost_cpu;
  out.stats.estimated_io = summary.est_cost_io;
  out.stats.estimated_cost = summary.TotalCost();
  out.stats.estimated_rows = summary.est_rows;
  out.stats.actual_cost = actual;
  out.stats.wallclock_nanos = exec_nanos;
  out.stats.physical_reads = exec_io;
  out.stats.rows_examined = ctx.stats.rows_examined;
  out.stats.used_indexes = summary.used_indexes;
  out.stats.plan_text = summary.plan_text;
  return out;
}

Result<PlanSummary> Database::SummarizeSelect(
    sql::SelectStmt* stmt, const std::vector<IndexInfo>& virtual_indexes) {
  Binder binder(&catalog_);
  IMON_ASSIGN_OR_RETURN(BoundSelect bound, binder.BindSelect(stmt));
  PlannerOptions options = planner_options();
  options.virtual_indexes = virtual_indexes;
  Planner planner(&catalog_, options);
  IMON_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan,
                        planner.PlanJoinTree(bound));
  return planner.Summarize(*plan, bound);
}

Result<QueryResult> Database::ExecExplain(sql::ExplainStmt* stmt,
                                          Session* /*session*/) {
  IMON_ASSIGN_OR_RETURN(
      PlanSummary summary,
      SummarizeSelect(static_cast<sql::SelectStmt*>(stmt->inner.get()), {}));
  QueryResult out;
  out.columns = {"plan"};
  std::istringstream lines(summary.plan_text);
  std::string line;
  while (std::getline(lines, line)) {
    out.rows.push_back({Value::Text(line)});
  }
  out.stats.estimated_cost = summary.TotalCost();
  out.stats.estimated_cpu = summary.est_cost_cpu;
  out.stats.estimated_io = summary.est_cost_io;
  out.stats.used_indexes = summary.used_indexes;
  out.stats.plan_text = summary.plan_text;
  return out;
}

Result<WhatIfResult> Database::WhatIfPlan(
    const std::string& select_sql,
    const std::vector<IndexInfo>& virtual_indexes) {
  IMON_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::Parse(select_sql));
  if (stmt->kind() != sql::StatementKind::kSelect) {
    return Status::InvalidArgument("what-if planning requires a SELECT");
  }
  WhatIfResult out;
  IMON_ASSIGN_OR_RETURN(
      out.summary,
      SummarizeSelect(static_cast<sql::SelectStmt*>(stmt.get()),
                      virtual_indexes));
  for (ObjectId id : out.summary.used_indexes) {
    for (const auto& vi : virtual_indexes) {
      if (vi.id == id) out.virtual_indexes_used.push_back(id);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

Result<Row> Database::BuildInsertRow(const sql::InsertStmt& stmt,
                                     const TableInfo& table,
                                     const std::vector<sql::ExprPtr>& exprs,
                                     exec::EvalScratch* scratch) {
  std::vector<int> target_ordinals;
  if (stmt.columns.empty()) {
    if (exprs.size() != table.columns.size()) {
      return Status::InvalidArgument(
          "INSERT value count does not match column count");
    }
    for (size_t i = 0; i < table.columns.size(); ++i) {
      target_ordinals.push_back(static_cast<int>(i));
    }
  } else {
    if (exprs.size() != stmt.columns.size()) {
      return Status::InvalidArgument(
          "INSERT value count does not match column list");
    }
    for (const std::string& name : stmt.columns) {
      auto ord = table.FindColumn(name);
      if (!ord.has_value()) {
        return Status::NotFound("unknown column '" + name + "' in INSERT");
      }
      target_ordinals.push_back(*ord);
    }
  }

  Row row(table.columns.size(), Value::Null());
  // VALUES items see no table: binding against an empty FROM list turns
  // a column reference into the binder's user-facing error.
  Binder binder(&catalog_);
  const std::vector<BoundTable> no_tables;
  OutputLayout empty;
  Row empty_row;
  for (size_t i = 0; i < exprs.size(); ++i) {
    IMON_RETURN_IF_ERROR(binder.BindScalar(exprs[i].get(), no_tables));
    IMON_ASSIGN_OR_RETURN(exec::ExprProgram program,
                          exec::ExprProgram::Compile(*exprs[i], empty));
    Value v;
    IMON_RETURN_IF_ERROR(program.Run(empty_row, nullptr, scratch, &v));
    int ord = target_ordinals[i];
    if (!v.is_null()) {
      IMON_ASSIGN_OR_RETURN(v, v.CastTo(table.columns[ord].type));
    }
    row[ord] = std::move(v);
  }
  for (const auto& col : table.columns) {
    if (!col.nullable && row[col.ordinal].is_null()) {
      return Status::InvalidArgument("column '" + col.name +
                                     "' may not be NULL");
    }
  }
  return row;
}

std::vector<IndexInfo> Database::TableIndexes(const TableInfo& table) const {
  return catalog_.IndexesOnTable(table.id);
}

Status Database::BumpRowCount(ObjectId table_id, int64_t delta) {
  IMON_ASSIGN_OR_RETURN(TableInfo info, catalog_.GetTableById(table_id));
  info.row_count = std::max<int64_t>(0, info.row_count + delta);
  // Keep page counts fresh from the file size (O(1)); exact main/overflow
  // accounting is recomputed by ANALYZE / MODIFY.
  int64_t pages = disk_->NumPages(info.file_id);
  if (info.structure == StorageStructure::kHeap) {
    info.main_pages = std::min<int64_t>(pages, info.main_page_target);
    info.overflow_pages = std::max<int64_t>(0, pages - info.main_page_target);
  } else {
    info.main_pages = pages;
    info.overflow_pages = 0;
  }
  return catalog_.UpdateTableStats(info);
}

Status Database::FireTriggers(const TableInfo& table, const Row& row) {
  std::vector<AlertEvent> events;
  // Called outside the lock, so it is copied under it: SetAlertHandler may
  // replace the member while the handler runs.
  AlertHandler handler;
  {
    std::lock_guard<std::mutex> lock(trigger_mutex_);
    if (alert_handler_ == nullptr) return Status::OK();
    exec::EvalScratch scratch;
    for (const TriggerDef& trigger : triggers_) {
      if (trigger.table_id != table.id) continue;
      bool fired = false;
      // Trigger errors never fail the insert.
      if (!trigger.when.RunPredicate(row, nullptr, &scratch, &fired).ok()) {
        continue;
      }
      if (fired) {
        events.push_back(
            AlertEvent{trigger.name, trigger.table_name, trigger.message,
                       row});
      }
    }
    if (events.empty()) return Status::OK();
    handler = alert_handler_;
  }
  for (const AlertEvent& e : events) handler(e);
  return Status::OK();
}

Result<QueryResult> Database::ExecInsert(sql::InsertStmt* stmt,
                                         Session* session,
                                         monitor::QueryTrace* trace) {
  IMON_ASSIGN_OR_RETURN(TableInfo table, catalog_.GetTable(stmt->table));
  monitor_->OnBindComplete(trace, std::span(&table.id, 1), {}, {});

  IMON_RETURN_IF_ERROR(
      LockTable(session, table.id, txn::LockMode::kExclusive));

  int64_t exec_start = MonotonicNanos();
  int64_t io_before = DiskIoTotal(disk_->stats());
  std::vector<IndexInfo> indexes = TableIndexes(table);
  int64_t inserted = 0;
  Status failure = Status::OK();
  exec::EvalScratch scratch;
  for (const auto& exprs : stmt->rows) {
    auto row = BuildInsertRow(*stmt, table, exprs, &scratch);
    if (!row.ok()) {
      failure = row.status();
      break;
    }
    auto loc = storage_->Insert(table, indexes, *row);
    if (!loc.ok()) {
      failure = loc.status();
      break;
    }
    Session::UndoEntry undo;
    undo.op = Session::UndoEntry::Op::kInsert;
    undo.table_id = table.id;
    undo.locator = *loc;
    undo.row = *row;
    session->undo_.push_back(std::move(undo));
    ++inserted;
    FireTriggers(table, *row).ok();
  }
  BumpRowCount(table.id, inserted).ok();
  IMON_RETURN_IF_ERROR(failure);
  int64_t exec_nanos = MonotonicNanos() - exec_start;
  int64_t exec_io = DiskIoTotal(disk_->stats()) - io_before;
  monitor_->OnExecuteComplete(trace, exec_nanos, exec_io,
                              ActualCost(exec_io, inserted), inserted,
                              inserted);

  QueryResult out;
  out.affected_rows = inserted;
  out.message = "INSERT " + std::to_string(inserted);
  out.stats.wallclock_nanos = exec_nanos;
  out.stats.physical_reads = exec_io;
  return out;
}

Result<std::vector<std::pair<Locator, Row>>> Database::CollectTargets(
    const PlanNode& scan, const BoundTable& table) {
  OutputLayout layout = OutputLayout::ForTable(
      0, 1, static_cast<int>(table.info.columns.size()));
  std::vector<exec::ExprProgram> filters;
  for (const sql::Expr* f : scan.filters) {
    IMON_ASSIGN_OR_RETURN(exec::ExprProgram p,
                          exec::ExprProgram::Compile(*f, layout));
    filters.push_back(std::move(p));
  }
  std::vector<std::pair<Locator, Row>> out;
  exec::EvalScratch scratch;
  Status inner = Status::OK();
  auto consider = [&](const Locator& loc, const Row& row) -> bool {
    for (const exec::ExprProgram& f : filters) {
      bool pass = false;
      inner = f.RunPredicate(row, nullptr, &scratch, &pass);
      if (!inner.ok()) return false;
      if (!pass) return true;
    }
    out.emplace_back(loc, row);
    return true;
  };

  IMON_RETURN_IF_ERROR(storage_->ScanPath(table.info, scan.access, consider));
  IMON_RETURN_IF_ERROR(inner);
  return out;
}

Result<QueryResult> Database::ExecUpdate(sql::UpdateStmt* stmt,
                                         Session* session,
                                         monitor::QueryTrace* trace) {
  Binder binder(&catalog_);
  IMON_ASSIGN_OR_RETURN(optimizer::BoundModification bound,
                        binder.BindUpdate(stmt));
  RecordBind(trace, bound.references);

  int64_t opt_start = MonotonicNanos();
  Planner planner(&catalog_, planner_options());
  IMON_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> scan,
                        planner.PlanSingleTable(bound.table, bound.conjuncts));
  monitor_->OnOptimizeComplete(
      trace, scan->est_cost_cpu, scan->est_cost_io, {},
      MonotonicNanos() - opt_start, 0);

  const TableInfo& table = bound.table.info;
  OutputLayout layout = OutputLayout::ForTable(
      0, 1, static_cast<int>(table.columns.size()));
  // SET expressions, with their column ordinals.
  std::vector<std::pair<int, exec::ExprProgram>> sets;
  for (const auto& [col, expr] : stmt->assignments) {
    IMON_ASSIGN_OR_RETURN(exec::ExprProgram p,
                          exec::ExprProgram::Compile(*expr, layout));
    sets.emplace_back(*table.FindColumn(col), std::move(p));
  }

  IMON_RETURN_IF_ERROR(
      LockTable(session, bound.table.info.id, txn::LockMode::kExclusive));

  int64_t exec_start = MonotonicNanos();
  int64_t io_before = DiskIoTotal(disk_->stats());
  IMON_ASSIGN_OR_RETURN(auto targets, CollectTargets(*scan, bound.table));

  std::vector<IndexInfo> indexes = TableIndexes(table);
  exec::EvalScratch scratch;
  int64_t updated = 0;
  for (auto& [loc, old_row] : targets) {
    Row new_row = old_row;
    for (const auto& [ord, program] : sets) {
      Value value;
      IMON_RETURN_IF_ERROR(program.Run(old_row, nullptr, &scratch, &value));
      if (!value.is_null()) {
        IMON_ASSIGN_OR_RETURN(value, value.CastTo(table.columns[ord].type));
      }
      new_row[ord] = std::move(value);
    }
    IMON_ASSIGN_OR_RETURN(Locator new_loc,
                          storage_->Update(table, indexes, loc, old_row,
                                           new_row));
    Session::UndoEntry undo;
    undo.op = Session::UndoEntry::Op::kUpdate;
    undo.table_id = table.id;
    undo.locator = new_loc;
    undo.row = new_row;
    undo.old_locator = loc;
    undo.old_row = old_row;
    session->undo_.push_back(std::move(undo));
    ++updated;
  }
  int64_t exec_nanos = MonotonicNanos() - exec_start;
  int64_t exec_io = DiskIoTotal(disk_->stats()) - io_before;
  monitor_->OnExecuteComplete(
      trace, exec_nanos, exec_io,
      ActualCost(exec_io, static_cast<int64_t>(targets.size())),
      static_cast<int64_t>(targets.size()), updated);

  QueryResult out;
  out.affected_rows = updated;
  out.message = "UPDATE " + std::to_string(updated);
  out.stats.wallclock_nanos = exec_nanos;
  out.stats.physical_reads = exec_io;
  return out;
}

Result<QueryResult> Database::ExecDelete(sql::DeleteStmt* stmt,
                                         Session* session,
                                         monitor::QueryTrace* trace) {
  Binder binder(&catalog_);
  IMON_ASSIGN_OR_RETURN(optimizer::BoundModification bound,
                        binder.BindDelete(stmt));
  RecordBind(trace, bound.references);

  int64_t opt_start = MonotonicNanos();
  Planner planner(&catalog_, planner_options());
  IMON_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> scan,
                        planner.PlanSingleTable(bound.table, bound.conjuncts));
  monitor_->OnOptimizeComplete(
      trace, scan->est_cost_cpu, scan->est_cost_io, {},
      MonotonicNanos() - opt_start, 0);

  IMON_RETURN_IF_ERROR(
      LockTable(session, bound.table.info.id, txn::LockMode::kExclusive));

  int64_t exec_start = MonotonicNanos();
  int64_t io_before = DiskIoTotal(disk_->stats());
  IMON_ASSIGN_OR_RETURN(auto targets, CollectTargets(*scan, bound.table));

  const TableInfo& table = bound.table.info;
  std::vector<IndexInfo> indexes = TableIndexes(table);
  Status failure = Status::OK();
  int64_t deleted = 0;
  for (auto& [loc, row] : targets) {
    Status s = storage_->Delete(table, indexes, loc, row);
    if (!s.ok()) {
      failure = s;
      break;
    }
    Session::UndoEntry undo;
    undo.op = Session::UndoEntry::Op::kDelete;
    undo.table_id = table.id;
    undo.old_locator = loc;
    undo.old_row = row;
    session->undo_.push_back(std::move(undo));
    ++deleted;
  }
  BumpRowCount(table.id, -deleted).ok();
  IMON_RETURN_IF_ERROR(failure);
  int64_t exec_nanos = MonotonicNanos() - exec_start;
  int64_t exec_io = DiskIoTotal(disk_->stats()) - io_before;
  monitor_->OnExecuteComplete(
      trace, exec_nanos, exec_io,
      ActualCost(exec_io, static_cast<int64_t>(targets.size())),
      static_cast<int64_t>(targets.size()), deleted);

  QueryResult out;
  out.affected_rows = deleted;
  out.message = "DELETE " + std::to_string(deleted);
  out.stats.wallclock_nanos = exec_nanos;
  out.stats.physical_reads = exec_io;
  return out;
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

Result<QueryResult> Database::ExecCreateTable(sql::CreateTableStmt* stmt) {
  if (stmt->if_not_exists && catalog_.HasTable(stmt->table)) {
    QueryResult out;
    out.message = "CREATE TABLE (exists)";
    return out;
  }
  TableInfo info;
  info.name = stmt->table;
  info.structure = StorageStructure::kHeap;  // Ingres default
  info.main_page_target =
      stmt->main_pages > 0 ? stmt->main_pages : options_.default_main_pages;
  std::vector<std::string> pk_names = stmt->primary_key;
  for (const auto& def : stmt->columns) {
    catalog::ColumnInfo col;
    col.name = def.name;
    col.type = def.type;
    col.nullable = !def.not_null;
    info.columns.push_back(std::move(col));
    if (def.primary_key) pk_names.push_back(def.name);
  }
  IMON_ASSIGN_OR_RETURN(ObjectId table_id, catalog_.CreateTable(info));
  IMON_ASSIGN_OR_RETURN(info, catalog_.GetTableById(table_id));

  for (const std::string& pk : pk_names) {
    auto ord = info.FindColumn(pk);
    if (!ord.has_value()) {
      catalog_.DropTable(info.name).ok();
      return Status::NotFound("primary key column '" + pk + "' not found");
    }
    info.primary_key.push_back(*ord);
    info.columns[*ord].nullable = false;
  }
  IMON_RETURN_IF_ERROR(storage_->CreateTableStorage(&info));
  IMON_RETURN_IF_ERROR(catalog_.UpdateTable(info));

  // Primary-key constraint index (Ingres keeps the base table heap and
  // enforces/serves the key through a unique secondary index).
  if (!info.primary_key.empty()) {
    IndexInfo pkey;
    pkey.name = info.name + "_pkey";
    pkey.table_id = info.id;
    pkey.key_columns = info.primary_key;
    pkey.unique = true;
    IMON_ASSIGN_OR_RETURN(ObjectId idx_id, catalog_.CreateIndex(pkey));
    IMON_ASSIGN_OR_RETURN(pkey, catalog_.GetIndexById(idx_id));
    IMON_RETURN_IF_ERROR(storage_->CreateIndexStorage(&pkey, info));
    IMON_RETURN_IF_ERROR(catalog_.UpdateIndex(pkey));
  }

  QueryResult out;
  out.message = "CREATE TABLE " + info.name;
  return out;
}

Result<QueryResult> Database::ExecDropTable(sql::DropTableStmt* stmt) {
  auto table = catalog_.GetTable(stmt->table);
  if (!table.ok()) {
    if (stmt->if_exists && table.status().IsNotFound()) {
      QueryResult out;
      out.message = "DROP TABLE (absent)";
      return out;
    }
    return table.status();
  }
  for (const IndexInfo& idx : TableIndexes(*table)) {
    storage_->DropIndexStorage(idx).ok();
  }
  IMON_RETURN_IF_ERROR(storage_->DropTableStorage(*table));
  IMON_RETURN_IF_ERROR(catalog_.DropTable(stmt->table));
  {
    std::lock_guard<std::mutex> lock(trigger_mutex_);
    triggers_.erase(std::remove_if(triggers_.begin(), triggers_.end(),
                                   [&](const TriggerDef& t) {
                                     return t.table_id == table->id;
                                   }),
                    triggers_.end());
  }
  QueryResult out;
  out.message = "DROP TABLE " + stmt->table;
  return out;
}

Result<QueryResult> Database::ExecCreateIndex(sql::CreateIndexStmt* stmt,
                                              Session* session) {
  IMON_ASSIGN_OR_RETURN(TableInfo table, catalog_.GetTable(stmt->table));
  IndexInfo info;
  info.name = stmt->index;
  info.table_id = table.id;
  info.unique = stmt->unique;
  for (const std::string& col : stmt->columns) {
    auto ord = table.FindColumn(col);
    if (!ord.has_value()) {
      return Status::NotFound("unknown column '" + col + "' in CREATE INDEX");
    }
    info.key_columns.push_back(*ord);
  }
  IMON_RETURN_IF_ERROR(
      LockTable(session, table.id, txn::LockMode::kExclusive));
  IMON_ASSIGN_OR_RETURN(ObjectId idx_id, catalog_.CreateIndex(info));
  IMON_ASSIGN_OR_RETURN(info, catalog_.GetIndexById(idx_id));
  Status backfill = storage_->CreateIndexStorage(&info, table);
  if (!backfill.ok()) {
    catalog_.DropIndex(info.name).ok();
    return backfill;
  }
  IMON_RETURN_IF_ERROR(catalog_.UpdateIndex(info));
  QueryResult out;
  out.message = "CREATE INDEX " + info.name;
  return out;
}

Result<QueryResult> Database::ExecDropIndex(sql::DropIndexStmt* stmt) {
  IMON_ASSIGN_OR_RETURN(IndexInfo info, catalog_.GetIndex(stmt->index));
  IMON_RETURN_IF_ERROR(storage_->DropIndexStorage(info));
  IMON_RETURN_IF_ERROR(catalog_.DropIndex(stmt->index));
  QueryResult out;
  out.message = "DROP INDEX " + stmt->index;
  return out;
}

Result<QueryResult> Database::ExecModify(sql::ModifyStmt* stmt,
                                         Session* session) {
  IMON_ASSIGN_OR_RETURN(TableInfo table, catalog_.GetTable(stmt->table));
  IMON_RETURN_IF_ERROR(
      LockTable(session, table.id, txn::LockMode::kExclusive));
  StorageStructure target = StorageStructure::kHeap;
  switch (stmt->target) {
    case sql::TargetStructure::kHeap:
      target = StorageStructure::kHeap;
      break;
    case sql::TargetStructure::kBtree:
      target = StorageStructure::kBtree;
      break;
    case sql::TargetStructure::kHash:
      target = StorageStructure::kHash;
      break;
    case sql::TargetStructure::kIsam:
      target = StorageStructure::kIsam;
      break;
  }
  std::vector<IndexInfo> indexes = TableIndexes(table);
  IMON_RETURN_IF_ERROR(storage_->ModifyStructure(&table, &indexes, target));
  IMON_RETURN_IF_ERROR(catalog_.UpdateTable(table));
  for (const IndexInfo& idx : indexes) {
    IMON_RETURN_IF_ERROR(catalog_.UpdateIndex(idx));
  }
  QueryResult out;
  out.message = std::string("MODIFY TO ") +
                catalog::StorageStructureName(target);
  return out;
}

Result<QueryResult> Database::ExecAnalyze(sql::AnalyzeStmt* stmt,
                                          Session* session) {
  IMON_ASSIGN_OR_RETURN(TableInfo table, catalog_.GetTable(stmt->table));
  std::vector<int> ordinals;
  if (stmt->columns.empty()) {
    for (const auto& col : table.columns) ordinals.push_back(col.ordinal);
  } else {
    for (const std::string& name : stmt->columns) {
      auto ord = table.FindColumn(name);
      if (!ord.has_value()) {
        return Status::NotFound("unknown column '" + name + "' in ANALYZE");
      }
      ordinals.push_back(*ord);
    }
  }
  IMON_RETURN_IF_ERROR(LockTable(session, table.id, txn::LockMode::kShared));

  std::vector<std::vector<Value>> samples(ordinals.size());
  IMON_RETURN_IF_ERROR(storage_->ScanPath(
      table, optimizer::AccessPath{}, [&](const Locator&, const Row& row) {
        for (size_t i = 0; i < ordinals.size(); ++i) {
          samples[i].push_back(row[ordinals[i]]);
        }
        return true;
      }));
  int64_t now = clock_->NowMicros();
  for (size_t i = 0; i < ordinals.size(); ++i) {
    catalog::ColumnStats stats;
    stats.has_histogram = true;
    stats.histogram = catalog::Histogram::Build(std::move(samples[i]));
    stats.built_at_micros = now;
    IMON_RETURN_IF_ERROR(
        catalog_.SetColumnStats(table.id, ordinals[i], std::move(stats)));
  }
  IMON_RETURN_IF_ERROR(storage_->RefreshTableStats(&table));
  IMON_RETURN_IF_ERROR(catalog_.UpdateTable(table));
  for (IndexInfo idx : TableIndexes(table)) {
    auto pages = storage_->IndexPages(idx);
    if (pages.ok()) {
      idx.pages = *pages;
      catalog_.UpdateIndex(idx).ok();
    }
  }
  QueryResult out;
  out.message = "ANALYZE " + table.name + " (" +
                std::to_string(ordinals.size()) + " columns)";
  return out;
}

Result<QueryResult> Database::ExecCreateTrigger(sql::CreateTriggerStmt* stmt) {
  IMON_ASSIGN_OR_RETURN(TableInfo table, catalog_.GetTable(stmt->table));
  BoundTable bt;
  bt.alias = table.name;
  bt.info = table;
  Binder binder(&catalog_);
  IMON_RETURN_IF_ERROR(binder.BindScalar(stmt->when.get(), {bt}));
  IMON_ASSIGN_OR_RETURN(
      exec::ExprProgram when,
      exec::ExprProgram::Compile(
          *stmt->when, OutputLayout::ForTable(
                           0, 1, static_cast<int>(table.columns.size()))));
  std::lock_guard<std::mutex> lock(trigger_mutex_);
  for (const TriggerDef& t : triggers_) {
    if (t.name == stmt->name) {
      return Status::AlreadyExists("trigger '" + stmt->name +
                                   "' already exists");
    }
  }
  TriggerDef def;
  def.name = stmt->name;
  def.table_id = table.id;
  def.table_name = table.name;
  def.when = std::move(when);
  def.message = stmt->message;
  triggers_.push_back(std::move(def));
  QueryResult out;
  out.message = "CREATE TRIGGER " + stmt->name;
  return out;
}

Result<QueryResult> Database::ExecDropTrigger(sql::DropTriggerStmt* stmt) {
  std::lock_guard<std::mutex> lock(trigger_mutex_);
  auto it = std::find_if(
      triggers_.begin(), triggers_.end(),
      [&](const TriggerDef& t) { return t.name == stmt->name; });
  if (it == triggers_.end()) {
    return Status::NotFound("trigger '" + stmt->name + "' does not exist");
  }
  triggers_.erase(it);
  QueryResult out;
  out.message = "DROP TRIGGER " + stmt->name;
  return out;
}

// ---------------------------------------------------------------------------
// Monitoring plumbing
// ---------------------------------------------------------------------------

Status Database::RegisterVirtualTable(
    const std::string& name,
    std::shared_ptr<catalog::VirtualTableProvider> provider) {
  return catalog_.RegisterVirtualTable(name, std::move(provider));
}

void Database::SetAlertHandler(AlertHandler handler) {
  std::lock_guard<std::mutex> lock(trigger_mutex_);
  alert_handler_ = std::move(handler);
}

monitor::SystemSnapshot Database::GatherSystemSnapshot() const {
  monitor::SystemSnapshot snap;
  snap.current_sessions = open_sessions_.load();
  txn::LockStats lock_stats = locks_.stats();
  snap.locks_held = lock_stats.locks_held;
  snap.lock_waits_total = lock_stats.total_waits;
  snap.deadlocks_total = lock_stats.total_deadlocks;
  storage::BufferPoolStats pool_stats = pool_->stats();
  snap.cache_logical_reads = pool_stats.logical_reads;
  snap.cache_physical_reads = pool_stats.physical_reads;
  storage::DiskStats disk_stats = disk_->stats();
  snap.disk_reads = disk_stats.physical_reads;
  snap.disk_writes = disk_stats.physical_writes;
  return snap;
}

void Database::SampleSystemStats() {
  monitor_->RecordSystemStats(GatherSystemSnapshot());
}

void Database::MaybeSampleStats() {
  if (monitor_->ShouldSampleStats()) SampleSystemStats();
}

int64_t Database::TotalDataPages() const {
  std::vector<storage::FileId> files;
  for (const TableInfo& t : catalog_.ListTables()) {
    files.push_back(t.file_id);
  }
  for (const IndexInfo& i : catalog_.ListIndexes()) {
    if (!i.is_virtual) files.push_back(i.file_id);
  }
  return disk_->TotalPagesIn(files);
}

double Database::ActualCost(int64_t physical_io,
                            int64_t rows_examined) const {
  return static_cast<double>(physical_io) * options_.cost_model.seq_page_cost +
         static_cast<double>(rows_examined) *
             options_.cost_model.cpu_tuple_cost;
}

}  // namespace imon::engine
