// The analyzer tool (paper §IV-C / §V-B).
//
// Scans the collected monitoring data (workload DB, or the live IMA
// tables when no workload DB is attached) and produces rule-based
// recommendations. The statements it reads are the compressed templates
// (wl_templates / imp_templates), one row per statement shape:
//
//   R1  "Actual and estimated costs of a statement differ significantly"
//       -> statistics may be missing or outdated: collect statistics.
//   R2  "One or more attributes of a table have no statistics"
//       -> histograms should be created.
//   R3  "A table with a fixed amount of main data pages has already more
//        than 10% overflow pages" -> restructure to B-Tree.
//   R4  Index recommendation: candidate indexes are generated from the
//       recorded statements' predicates and evaluated by feeding the
//       engine's own optimizer *virtual indexes* (AutoAdmin-style
//       what-if), "exploiting its decision about which indexes will
//       actually be used"; a frequency-weighted greedy search selects
//       the final set.
//
// The analyzer also produces the paper's report data: the Fig. 6 cost
// diagram (actual / estimated / estimated-with-virtual-indexes for the
// most expensive statements) and the Fig. 8 locks diagram series.

#ifndef IMON_ANALYZER_ANALYZER_H_
#define IMON_ANALYZER_ANALYZER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"

namespace imon::analyzer {

enum class RecommendationKind {
  kCollectStatistics,  // R1 + R2
  kModifyToBtree,      // R3
  kCreateIndex,        // R4
  kDropIndex,          // R5: index never used by the recorded workload
};

const char* RecommendationKindName(RecommendationKind kind);

/// One supporting statement template with its aggregate numbers at
/// recommendation time — the evidence trail behind a decision. Persisted
/// by the tuner as imp_tuning_provenance / wl_tuning_provenance, where
/// `fingerprint` joins back to imp_templates.
struct RecommendationEvidence {
  uint64_t fingerprint = 0;
  int64_t executions = 0;
  double total_actual = 0;
  double total_estimated = 0;
};

struct Recommendation {
  RecommendationKind kind;
  /// The table the change targets (for R5 drop-index: the owning table).
  std::string table;
  std::vector<std::string> columns;
  /// Index the change creates (R4) or drops (R5); empty otherwise.
  std::string index_name;
  /// Human-readable rule justification.
  std::string reason;
  /// The statement that implements the change.
  std::string sql;
  /// The statement that undoes the change, machine-readable so the
  /// closed-loop tuner can roll back automatically: DROP INDEX for R4,
  /// MODIFY back to the pre-change structure for R3, CREATE INDEX for
  /// R5. Empty when the change has no inverse (ANALYZE).
  std::string inverse_sql;
  /// Frequency-weighted optimizer-cost saving (R4) or 0.
  double estimated_benefit = 0;
  /// Statements supporting this recommendation.
  int64_t supporting_statements = 0;
  /// Estimated index size in pages (R4).
  double estimated_pages = 0;
  /// Provenance: unique id stamped by Analyze() on every emitted
  /// recommendation; threads unchanged through the tuner lifecycle so
  /// audit rows, provenance rows and trace spans all join on it.
  int64_t decision_id = 0;
  /// The rule that fired ("R1".."R5").
  std::string rule;
  /// The statement templates whose aggregates justified the decision
  /// (filled by R1 and R4; structural rules R2/R3/R5 argue from catalog
  /// state, not statements).
  std::vector<RecommendationEvidence> evidence;
};

/// One bar group of the Fig. 6 cost diagram.
struct StatementCostReport {
  uint64_t hash = 0;
  std::string text;
  int64_t frequency = 0;
  double actual_cost = 0;
  double estimated_cost = 0;
  /// Optimizer estimate when the recommended (virtual) index set exists.
  double virtual_estimated_cost = 0;
};

/// Linear-trend summary for one table, fitted over the workload DB's
/// timestamped snapshots (paper §II: "recording those values
/// continuously over a longer period of time allows ... to a certain
/// degree, the prediction of future problems").
struct TableTrend {
  std::string table;
  double current_pages = 0;
  double pages_per_day = 0;     ///< fitted growth rate
  double rows_per_day = 0;
  /// Days until the table doubles its current size at the fitted rate
  /// (infinity when not growing).
  double days_to_double = 0;
};

/// One point of the Fig. 8 locks diagram.
struct LockReportPoint {
  int64_t time_micros = 0;
  int64_t locks_held = 0;
  int64_t lock_waits_delta = 0;
  int64_t deadlocks_delta = 0;
};

struct AnalysisReport {
  std::vector<Recommendation> recommendations;
  std::vector<StatementCostReport> cost_diagram;
  std::vector<LockReportPoint> locks_diagram;
  /// Growth trends; filled only when a workload DB (time series) is
  /// attached and spans more than one capture time.
  std::vector<TableTrend> trends;
  int64_t statements_analyzed = 0;
  int64_t cost_mismatch_statements = 0;  ///< flagged by R1
  int64_t analysis_micros = 0;

  std::string ToString() const;  ///< textual report for the DBA
};

struct AnalyzerConfig {
  /// R1 fires when max(actual,est)/min(actual,est) exceeds this.
  double cost_mismatch_factor = 3.0;
  /// R3 fires when overflow_pages > threshold * main_pages (paper: 10%).
  double overflow_threshold = 0.10;
  /// Rows of the Fig. 6 cost diagram.
  int top_statements = 10;
  /// Greedy index-selection bounds.
  size_t max_indexes = 16;
  double min_index_benefit = 1.0;
  int max_index_key_columns = 2;
};

class Analyzer {
 public:
  /// `workload_db` may be null: the analyzer then reads the live IMA
  /// tables of `monitored` directly.
  Analyzer(engine::Database* monitored, engine::Database* workload_db,
           AnalyzerConfig config = {});

  /// Scan collected data, run all rules, return the report.
  Result<AnalysisReport> Analyze();

  /// Implement recommendations on the monitored engine (the paper's
  /// manual "implementation" phase, scripted). Returns how many applied.
  Result<int64_t> Apply(const std::vector<Recommendation>& recommendations);

 private:
  /// One distinct statement *shape* (template). `hash`/`text` are the
  /// deterministic representative execution — min (first_seen, hash) —
  /// as the monitor picks it.
  struct StatementInfo {
    uint64_t hash = 0;
    std::string text;
    uint64_t fingerprint = 0;
    int64_t first_seen_micros = 0;
    int64_t frequency = 1;
    double total_actual = 0;
    double total_estimated = 0;
    int64_t executions = 0;
    bool is_select = false;
    /// Tables the shape references (deduplicated, sorted) — drives R1.
    std::vector<catalog::ObjectId> ref_tables;
  };

  /// Fetch all rows of `table` from the workload DB (wl_*) or live IMA
  /// (imp_*), whichever is attached; returns rows + name->position map.
  Result<std::pair<std::vector<Row>, std::map<std::string, int>>> Fetch(
      const std::string& logical_name);

  /// The recorded workload, one entry per template (wl_templates, or
  /// imp_templates when no workload DB is attached), sorted by
  /// (first_seen, fingerprint) so greedy rule iteration is deterministic.
  Result<std::vector<StatementInfo>> LoadStatements();

  /// R1: cost-mismatch -> collect statistics on referenced tables.
  Status RuleCostMismatch(const std::vector<StatementInfo>& statements,
                          AnalysisReport* report);
  /// R2: referenced attributes without histograms.
  Status RuleMissingHistograms(AnalysisReport* report);
  /// R3: heap/hash tables with too many overflow pages.
  Status RuleOverflowPages(AnalysisReport* report);
  /// R5: indexes the recorded workload never used.
  Status RuleUnusedIndexes(AnalysisReport* report);
  /// R4: greedy what-if index selection.
  Status RuleIndexSelection(const std::vector<StatementInfo>& statements,
                            AnalysisReport* report);

  Status BuildCostDiagram(const std::vector<StatementInfo>& statements,
                          const std::vector<catalog::IndexInfo>& chosen,
                          AnalysisReport* report);
  Status BuildLocksDiagram(AnalysisReport* report);
  /// Fit per-table growth trends over the workload DB's wl_tables series.
  Status BuildTrends(AnalysisReport* report);

  /// Candidate index columns per table, mined from statement predicates.
  Result<std::vector<catalog::IndexInfo>> GenerateCandidates(
      const std::vector<StatementInfo>& statements);

  /// Dedicated analyzer sessions (lazily created) so analyzer reads and
  /// applied DDL never share a connection with application threads. Not
  /// internal sessions: analyzer activity is monitored like any other
  /// client's, as in the paper.
  engine::Session* MonitoredSession();
  engine::Session* WorkloadSession();

  engine::Database* monitored_;
  engine::Database* workload_db_;  // may be null
  AnalyzerConfig config_;
  std::unique_ptr<engine::Session> monitored_session_;
  std::unique_ptr<engine::Session> workload_session_;
};

}  // namespace imon::analyzer

#endif  // IMON_ANALYZER_ANALYZER_H_
