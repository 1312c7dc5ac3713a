// The explicit statement path: one StatementPipeline instance drives a
// single SQL statement through
//
//   Parse -> Bind -> Optimize -> Execute -> Commit
//
// filling the session's monitor::QueryTrace, so every stage's sensor
// state is local to the session — no shared trace, no locks until the
// final Commit publishes into the monitor's shard for this session. The
// session keeps the trace between statements (reset, not rebuilt), so its
// buffers keep their capacity and a warm statement's sensors and Commit
// allocate nothing.
//
// The pipeline is also the statement's scope, the one place that ends
// it. It notes whether a transaction was active at entry and the undo
// log's size (the undo mark). When the statement ends, a failure undoes
// the log back to the mark, and the implicit transaction is released
// only by the scope that opened it, before Monitor::Commit. A statement
// nested in another on the same session (say, from an alert handler)
// joins the outer transaction and never ends it.
//
// Database::Execute is a thin wrapper that constructs a pipeline; the
// plan-cache fast path and the cache-filling SELECT path are stages of
// the pipeline, not special cases inside the engine facade.

#ifndef IMON_ENGINE_STATEMENT_PIPELINE_H_
#define IMON_ENGINE_STATEMENT_PIPELINE_H_

#include <string>

#include "common/status.h"
#include "monitor/monitor.h"
#include "sql/ast.h"

namespace imon::engine {

class Database;
class Session;
struct QueryResult;

class StatementPipeline {
 public:
  /// Binds the pipeline to one engine + session, claims the session's
  /// trace for the pipeline's nesting level and opens the statement scope.
  /// The session must outlive the pipeline; a pipeline runs exactly one
  /// statement.
  StatementPipeline(Database* db, Session* session);
  ~StatementPipeline();

  StatementPipeline(const StatementPipeline&) = delete;
  StatementPipeline& operator=(const StatementPipeline&) = delete;

  /// Run one statement end to end and end its scope. On success the trace
  /// is committed to the monitor and the periodic statistics sampler is
  /// consulted.
  Result<QueryResult> Run(const std::string& sql);

 private:
  /// Parse -> Bind -> Optimize -> Execute, on whichever path applies.
  Result<QueryResult> Stages(const std::string& sql);

  /// Cache-filling SELECT path: bind + plan once, remember under the
  /// text hash with the template fingerprint, execute.
  Result<QueryResult> BindPlanAndCache(sql::StatementPtr parsed,
                                       uint64_t text_hash,
                                       uint64_t fingerprint);

  /// End the statement scope, then publish the trace on success.
  Result<QueryResult> Finish(Result<QueryResult> result);

  Database* db_;
  Session* session_;
  monitor::QueryTrace& trace_;
  /// A transaction was active at entry: explicit, or an outer statement's.
  const bool joined_txn_;
  /// The session's undo log size at entry.
  const size_t undo_mark_;
};

}  // namespace imon::engine

#endif  // IMON_ENGINE_STATEMENT_PIPELINE_H_
