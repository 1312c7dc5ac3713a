// The closed-loop autonomous tuner.
//
// The paper closes with the observation that the monitoring
// infrastructure "could be used to close the loop": instead of handing
// the analyzer's recommendations to a DBA for manual implementation,
// drive them through a guarded apply / verify / rollback cycle against
// the live engine. TuningOrchestrator does exactly that. It consumes
// analyzer::Recommendations and moves each through the state machine
//
//   PROPOSED -> REVALIDATED -> APPLYING -> APPLIED -> VERIFYING
//                                                     -> KEPT
//                                                     -> ROLLED_BACK
//
// with guardrails at every edge:
//
//   * Revalidation re-runs the what-if analysis (or the rule's live
//     predicate) at apply time against fresh statistics, so a
//     recommendation that went stale between analysis and apply is
//     REJECTED instead of executed.
//   * Apply executes the real DDL through an internal session (invisible
//     to the monitor), serialized single-flight, with a per-table
//     cooldown so the tuner never thrashes one table.
//   * Verification compares post-apply per-execution actual costs of the
//     statements touching the tuned table against a pre-apply baseline,
//     over a Clock-driven observation window. Both the baseline and the
//     verdict measurement are recorded into the engine's metrics-history
//     flight recorder (tuner.stmt_cost_micros.<table>), and the baseline
//     is read back from the raw-resolution rollup over the pre-apply
//     window — so repeated applies against the same table see the
//     accumulated cost history, not just one instantaneous scalar (with
//     a scalar fallback when history is compiled out).
//     Regression beyond the tolerance triggers the recommendation's
//     machine-readable inverse statement (DROP INDEX / MODIFY back):
//     automatic rollback.
//
// Every transition is appended to the persistent wl_tuning_actions audit
// table in the workload DB, and the live action list is exposed as the
// imp_tuning_actions IMA virtual table. Each submitted action also
// freezes its analyzer evidence — decision_id, the rule that fired, and
// the supporting template aggregates — into wl_tuning_provenance,
// exposed live as imp_tuning_provenance; joining it against
// imp_tuning_actions and imp_templates answers "why does this index
// exist and what happened to cost afterwards" over plain SQL. On construction over an existing
// workload DB the orchestrator recovers from the audit trail: an apply
// interrupted by a crash is detected and the catalog reconciled (undo the
// half-applied change, or mark the action failed) on the next tick.
//
// Fully deterministic under SimulatedClock; a test-only apply fault hook
// (FaultInjector::BeforeApply) simulates crashes around the DDL.

#ifndef IMON_TUNER_TUNER_H_
#define IMON_TUNER_TUNER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "engine/database.h"

namespace imon::monitor {
struct LifecycleSpan;
}

namespace imon::tuner {

/// Lifecycle of one tuning action. kApplying is transient (crash window
/// around the DDL); kRejected/kFailed are the guardrail exits.
enum class ActionState {
  kProposed = 0,
  kRevalidated = 1,
  kApplying = 2,
  kApplied = 3,
  kVerifying = 4,
  kKept = 5,
  kRolledBack = 6,
  kRejected = 7,
  kFailed = 8,
};

const char* ActionStateName(ActionState state);
bool ActionStateIsTerminal(ActionState state);

struct TunerConfig {
  /// Revalidated frequency-weighted what-if benefit an index
  /// recommendation must keep to be applied.
  double min_revalidated_benefit = 1.0;
  /// ANALYZE the target table before revalidating, so the what-if rerun
  /// sees fresh statistics.
  bool refresh_statistics = true;
  /// R3 revalidation: overflow ratio that must still hold.
  double overflow_threshold = 0.10;
  /// Observation window between apply and verdict.
  std::chrono::seconds verification_window{300};
  /// Keep the change while observed cost <= baseline * (1 + tolerance).
  double regression_tolerance = 0.25;
  /// Executions of tracked statements required inside the window to
  /// judge at all; fewer -> kept with a note (no evidence of harm).
  int64_t min_verify_executions = 1;
  /// Minimum spacing between applies touching the same table.
  std::chrono::seconds table_cooldown{3600};
  /// Actions allowed in {APPLYING, APPLIED, VERIFYING} at once.
  int max_inflight = 1;
};

/// One recommendation moving through the loop (a row of
/// imp_tuning_actions).
struct TuningAction {
  int64_t id = 0;
  ActionState state = ActionState::kProposed;
  analyzer::RecommendationKind kind =
      analyzer::RecommendationKind::kCollectStatistics;
  std::string table;
  std::string index_name;
  /// Key columns of a kCreateIndex action (for the what-if rerun).
  std::vector<std::string> columns;
  std::string sql;
  std::string inverse_sql;
  /// Benefit claimed by the analyzer, then re-estimated at revalidation.
  double proposed_benefit = 0;
  double revalidated_benefit = 0;
  int64_t proposed_at = 0;  ///< micros
  int64_t applied_at = 0;
  int64_t decided_at = 0;
  /// Pre-apply per-execution mean actual cost of tracked statements.
  double baseline_cost = 0;
  int64_t baseline_execs = 0;
  /// Monitor workload seq at apply; verification only counts newer rows.
  int64_t applied_seq = 0;
  double observed_cost = 0;
  int64_t observed_execs = 0;
  std::string detail;
  /// Provenance: the analyzer decision this action implements. Threads
  /// unchanged from Recommendation.decision_id through every state, so
  /// audit rows, wl_tuning_provenance rows and trace spans join on it.
  int64_t decision_id = 0;
  /// Analyzer rule that fired ("R1".."R5").
  std::string rule;
};

/// One evidence row behind a decision (a row of imp_tuning_provenance /
/// wl_tuning_provenance): which statement template justified the
/// analyzer decision that became `action_id`, with the template's
/// aggregate numbers frozen at recommendation time. `fingerprint` joins
/// imp_templates / wl_templates; `decision_id` + `action_id` join
/// imp_tuning_actions. Rules that argue from catalog state rather than
/// statements (R2/R3/R5) contribute one row with fingerprint 0, so every
/// action has at least one provenance row answering "why".
struct ProvenanceRecord {
  int64_t decision_id = 0;
  int64_t action_id = 0;
  std::string rule;
  uint64_t fingerprint = 0;
  int64_t executions = 0;
  double total_actual = 0;
  double total_estimated = 0;
  int64_t recommended_at = 0;  ///< micros; the action's proposed_at
};

struct TunerStats {
  int64_t ticks = 0;
  int64_t submitted = 0;
  int64_t deduplicated = 0;
  int64_t rejected = 0;
  int64_t applied = 0;
  int64_t apply_failures = 0;
  int64_t kept = 0;
  int64_t rolled_back = 0;
  int64_t cooldown_skips = 0;
  int64_t reconciled = 0;
};

/// Create the wl_tuning_actions audit table and the wl_tuning_provenance
/// evidence table in `workload_db`. Idempotent.
Status CreateTuningSchema(engine::Database* workload_db);

class TuningOrchestrator {
 public:
  /// `workload_db` may be null: the loop then runs without a persistent
  /// audit trail (live imp_tuning_actions only) and cannot recover
  /// across instances. `clock` defaults to the monitored engine's clock.
  TuningOrchestrator(engine::Database* monitored,
                     engine::Database* workload_db, TunerConfig config = {},
                     const Clock* clock = nullptr);
  ~TuningOrchestrator();

  /// Create internal sessions + audit schema, register tuner.* metrics,
  /// and recover in-flight actions from a pre-existing audit trail.
  Status Initialize();

  /// Enqueue recommendations as PROPOSED actions. Duplicates (same SQL)
  /// of a still-pending or in-flight action are dropped.
  Status Submit(const std::vector<analyzer::Recommendation>& recommendations);

  /// One deterministic step of the loop: reconcile interrupted applies,
  /// judge verification windows that have elapsed, revalidate proposals,
  /// and apply at most one revalidated action (single-flight, cooldown
  /// permitting). Serialized; safe to call from the daemon's flush
  /// listener and tests concurrently.
  Status Tick();

  /// Test-only crash hook, consulted before and after the apply DDL. A
  /// non-OK return abandons the apply at that point exactly as a crash
  /// would: the action stays APPLYING until reconciliation.
  void set_apply_fault_hook(std::function<Status()> hook);

  /// Live copy of every action (the imp_tuning_actions contents).
  std::vector<TuningAction> SnapshotActions() const;

  /// Live copy of every evidence row (the imp_tuning_provenance
  /// contents). Recovered from wl_tuning_provenance across restarts.
  std::vector<ProvenanceRecord> SnapshotProvenance() const;

  TunerStats stats() const;

 private:
  struct StatementCosts {
    double mean_cost = 0;
    int64_t executions = 0;
    int64_t max_seq = 0;
  };

  // Tick phases; caller holds mutex_.
  void ReconcileApplying();
  void JudgeVerifying();
  void RevalidateProposed();
  void ApplyOne();

  /// Revalidation predicate per kind; fills action->revalidated_benefit
  /// and action->detail on rejection.
  bool Revalidate(TuningAction* action);
  double RevalidateIndexBenefit(const TuningAction& action);

  /// Per-execution mean actual cost of SELECT statements referencing
  /// `table`, over monitor workload rows with seq > min_seq_exclusive.
  StatementCosts MeasureStatementCosts(const std::string& table,
                                       int64_t min_seq_exclusive) const;

  /// Execute-stage latency totals from imp_stage_latency, for the audit
  /// detail (observability, not decisional).
  std::string StageLatencyNote() const;

  /// Execute one DDL/utility statement on the monitored engine through
  /// the internal session.
  Status ExecuteDdl(const std::string& sql);

  /// Roll the applied change back via inverse_sql; returns the status of
  /// the inverse DDL.
  Status ExecuteInverse(TuningAction* action, const std::string& why);

  /// True when the catalog shows the action's DDL took effect (index
  /// exists / structure changed / index gone).
  bool AppliedEffectVisible(const TuningAction& action) const;

  /// Append one audit row for the action's current state. No-op without
  /// a workload DB.
  void Audit(const TuningAction& action);

  /// Persist one evidence row into wl_tuning_provenance (best effort,
  /// like Audit) and keep the in-memory copy.
  void RecordProvenance(ProvenanceRecord record);

  /// Rebuild in-memory state from wl_tuning_actions (crash recovery).
  Status Recover();
  /// Reload the evidence trail from wl_tuning_provenance.
  Status RecoverProvenance();

  /// Series name of the per-table statement-cost flight recorder
  /// ("tuner.stmt_cost_micros.<table>" in imp_metrics_history).
  static std::string CostSeriesName(const std::string& table);

  void Transition(TuningAction* action, ActionState state,
                  const std::string& detail);

  int64_t NowMicros() const { return clock_->NowMicros(); }

  engine::Database* monitored_;
  engine::Database* workload_db_;  // may be null
  TunerConfig config_;
  const Clock* clock_;

  std::unique_ptr<engine::Session> ddl_session_;
  std::unique_ptr<engine::Session> audit_session_;

  mutable std::mutex mutex_;
  std::vector<TuningAction> actions_;
  std::vector<ProvenanceRecord> provenance_;
  int64_t next_action_id_ = 1;
  int64_t next_event_seq_ = 1;
  /// table name -> micros of its most recent apply (cooldown guard).
  std::map<std::string, int64_t> last_apply_micros_;
  std::function<Status()> apply_fault_hook_;
  TunerStats stats_;
  bool initialized_ = false;

  /// imp_metrics mirrors (`tuner.*`) in the monitored engine's registry.
  metrics::Counter* m_ticks_ = nullptr;
  metrics::Counter* m_submitted_ = nullptr;
  metrics::Counter* m_rejected_ = nullptr;
  metrics::Counter* m_applied_ = nullptr;
  metrics::Counter* m_apply_failures_ = nullptr;
  metrics::Counter* m_kept_ = nullptr;
  metrics::Counter* m_rolled_back_ = nullptr;
  metrics::Counter* m_cooldown_skips_ = nullptr;
  metrics::Counter* m_reconciled_ = nullptr;
};

/// Register the imp_tuning_actions virtual table on `db` (normally the
/// monitored engine), exposing `orchestrator`'s live action list over
/// SQL. The orchestrator must outlive `db`'s use of the table.
Status RegisterTuningActionsTable(engine::Database* db,
                                  const TuningOrchestrator* orchestrator);

/// Register the imp_tuning_provenance virtual table on `db`, exposing
/// `orchestrator`'s evidence trail. Joins: decision_id/action_id against
/// imp_tuning_actions, fingerprint against imp_templates. The
/// orchestrator must outlive `db`'s use of the table.
Status RegisterTuningProvenanceTable(engine::Database* db,
                                     const TuningOrchestrator* orchestrator);

/// Convert tuning actions into Chrome-trace lifecycle spans on a
/// dedicated "tuner" track (monitor::WriteChromeTrace's spans overload):
/// one span per action from proposal to decision, plus a nested "verify"
/// span over the observation window, each carrying decision_id /
/// action_id / rule in its args so the track joins the audit and
/// provenance tables. `now_micros` closes still-open spans.
std::vector<monitor::LifecycleSpan> ActionLifecycleSpans(
    const std::vector<TuningAction>& actions, int64_t now_micros);

}  // namespace imon::tuner

#endif  // IMON_TUNER_TUNER_H_
