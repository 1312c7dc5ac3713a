#include "engine/statement_pipeline.h"

#include <memory>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "exec/expr_program.h"
#include "sql/normalizer.h"
#include "sql/parser.h"

namespace imon::engine {

StatementPipeline::StatementPipeline(Database* db, Session* session)
    : db_(db),
      session_(session),
      trace_(session->AcquireTrace()),
      joined_txn_(session->txn_active_),
      undo_mark_(session->undo_.size()) {}

StatementPipeline::~StatementPipeline() { session_->ReleaseTrace(); }

Result<QueryResult> StatementPipeline::Run(const std::string& sql) {
  return Finish(Stages(sql));
}

Result<QueryResult> StatementPipeline::Stages(const std::string& sql) {
  trace_.Reset();
  // Internal sessions (the daemon's IMA polling) bypass the monitor so
  // self-observation does not flood the statement history.
  if (!session_->internal()) {
    db_->monitor_->OnQueryStart(&trace_, session_->id());
  }
  const bool plan_cache = db_->options_.plan_cache_capacity > 0;
  // One hash of the text keys the plan cache and the parse sensor.
  const uint64_t text_hash =
      plan_cache || trace_.active ? HashStatement(sql) : 0;

  // Plan-cache fast path: a previously bound + planned SELECT is reused
  // verbatim while the catalog version is unchanged.
  if (plan_cache) {
    auto entry = db_->LookupPlanCache(text_hash);
    if (entry != nullptr) {
      db_->monitor_->OnParseComplete(&trace_, sql, text_hash,
                                     entry->fingerprint);
      db_->RecordBind(&trace_, entry->bound.references);
      db_->monitor_->OnOptimizeComplete(&trace_, entry->summary.est_cost_cpu,
                                        entry->summary.est_cost_io,
                                        entry->summary.used_indexes, 0, 0);
      return db_->RunPlannedSelect(entry->bound, *entry->plan,
                                   entry->summary, entry->compiled.get(),
                                   session_, &trace_);
    }
  }

  sql::StatementPtr stmt;
  bool fills_cache = false;
  uint64_t fingerprint = 0;
  {
    // The tokens are freed before execution: a bulk INSERT's are large.
    std::vector<sql::Token> tokens;
    IMON_ASSIGN_OR_RETURN(stmt, sql::Parse(sql, &tokens));
    fills_cache = plan_cache && stmt->kind() == sql::StatementKind::kSelect;
    // The template fingerprint comes from the parser's tokens, and only a
    // monitored statement or a cache-filling SELECT pays for it.
    if (trace_.active || fills_cache) {
      fingerprint = sql::TemplateFingerprint(tokens);
    }
  }
  db_->monitor_->OnParseComplete(&trace_, sql, text_hash, fingerprint);

  if (fills_cache) {
    return BindPlanAndCache(std::move(stmt), text_hash, fingerprint);
  }

  return db_->Dispatch(stmt.get(), session_, &trace_);
}

Result<QueryResult> StatementPipeline::BindPlanAndCache(
    sql::StatementPtr parsed, uint64_t text_hash, uint64_t fingerprint) {
  using optimizer::Planner;
  using optimizer::PlannerOptions;

  auto entry = std::make_shared<Database::CachedPlan>();
  entry->catalog_version = db_->catalog_.version();
  entry->stmt = std::move(parsed);
  entry->fingerprint = fingerprint;
  optimizer::Binder binder(&db_->catalog_);
  IMON_ASSIGN_OR_RETURN(
      entry->bound,
      binder.BindSelect(static_cast<sql::SelectStmt*>(entry->stmt.get())));
  db_->RecordBind(&trace_, entry->bound.references);
  int64_t opt_start = MonotonicNanos();
  Planner planner(&db_->catalog_,
                  PlannerOptions{db_->options_.cost_model, {},
                                 db_->options_.exec_workers,
                                 db_->options_.exec_morsel_pages});
  IMON_ASSIGN_OR_RETURN(entry->plan, planner.PlanJoinTree(entry->bound));
  entry->summary = planner.Summarize(*entry->plan, entry->bound);
  db_->monitor_->OnOptimizeComplete(
      &trace_, entry->summary.est_cost_cpu, entry->summary.est_cost_io,
      entry->summary.used_indexes, MonotonicNanos() - opt_start, 0);
  // Compile once here so every plan-cache hit replays the programs
  // without re-walking the expression trees.
  if (db_->options_.use_compiled_exprs) {
    auto cr = exec::CompiledSelect::Compile(entry->bound, *entry->plan);
    if (cr.ok()) entry->compiled = std::move(*cr);
  }
  std::shared_ptr<const Database::CachedPlan> shared = entry;
  db_->StorePlanCache(text_hash, shared);
  return db_->RunPlannedSelect(shared->bound, *shared->plan,
                               shared->summary, shared->compiled.get(),
                               session_, &trace_);
}

Result<QueryResult> StatementPipeline::Finish(Result<QueryResult> result) {
  if (!result.ok()) db_->UndoTo(session_, undo_mark_).ok();
  if (!joined_txn_ && session_->txn_implicit_) db_->ReleaseTxn(session_);
  if (result.ok()) {
    db_->monitor_->Commit(&trace_);
    db_->MaybeSampleStats();
  }
  return result;
}

}  // namespace imon::engine
