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
  /// Binds the pipeline to one engine + session and claims the session's
  /// trace for the pipeline's nesting level. The session must outlive the
  /// pipeline; a pipeline runs exactly one statement.
  StatementPipeline(Database* db, Session* session);
  ~StatementPipeline();

  StatementPipeline(const StatementPipeline&) = delete;
  StatementPipeline& operator=(const StatementPipeline&) = delete;

  /// Run one statement end to end. On success the trace is committed to
  /// the monitor and the periodic statistics sampler is consulted.
  Result<QueryResult> Run(const std::string& sql);

 private:
  /// Cache-filling SELECT path: bind + plan once, remember under the
  /// text hash with the template fingerprint, execute.
  Result<QueryResult> BindPlanAndCache(sql::StatementPtr parsed,
                                       uint64_t text_hash,
                                       uint64_t fingerprint);

  /// Publish the trace on success (shared tail of every path).
  Result<QueryResult> Finish(Result<QueryResult> result);

  Database* db_;
  Session* session_;
  monitor::QueryTrace& trace_;
};

}  // namespace imon::engine

#endif  // IMON_ENGINE_STATEMENT_PIPELINE_H_
