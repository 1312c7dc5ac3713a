#include "engine/statement_pipeline.h"

#include <memory>
#include <utility>
#include <vector>

#include "engine/database.h"
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
      return db_->RunPlannedSelect(*entry, session_, &trace_);
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
    // Plan (and compile) once, then every hit replays the entry.
    auto entry = std::make_shared<Database::CachedPlan>();
    entry->stmt = std::move(stmt);
    entry->fingerprint = fingerprint;
    IMON_RETURN_IF_ERROR(db_->PlanSelect(
        static_cast<sql::SelectStmt*>(entry->stmt.get()), &trace_,
        entry.get()));
    db_->StorePlanCache(text_hash, entry);
    return db_->RunPlannedSelect(*entry, session_, &trace_);
  }

  return db_->Dispatch(stmt.get(), session_, &trace_);
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
