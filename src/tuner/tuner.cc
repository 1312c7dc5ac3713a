#include "tuner/tuner.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "catalog/catalog.h"
#include "monitor/monitor.h"
#include "monitor/trace_export.h"

namespace imon::tuner {

using analyzer::Recommendation;
using analyzer::RecommendationKind;
using analyzer::RecommendationKindName;
using catalog::ColumnInfo;
using engine::Database;

namespace {

constexpr char kAuditTable[] = "wl_tuning_actions";

const char* kAuditDdl =
    "CREATE TABLE IF NOT EXISTS wl_tuning_actions (action_id INT, "
    "event_seq INT, event_at INT, state TEXT, kind TEXT, table_name TEXT, "
    "index_name TEXT, action_sql TEXT, inverse_sql TEXT, benefit DOUBLE, "
    "baseline_cost DOUBLE, baseline_execs INT, applied_seq INT, "
    "observed_cost DOUBLE, observed_execs INT, detail TEXT, "
    "decision_id INT, rule TEXT)";

constexpr char kProvenanceTable[] = "wl_tuning_provenance";

const char* kProvenanceDdl =
    "CREATE TABLE IF NOT EXISTS wl_tuning_provenance (decision_id INT, "
    "action_id INT, rule TEXT, fingerprint INT, executions INT, "
    "total_actual DOUBLE, total_estimated DOUBLE, recommended_at INT)";

bool IsSelect(const std::string& text) {
  size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  const char kSelect[] = "SELECT";
  for (size_t k = 0; kSelect[k] != '\0'; ++k, ++i) {
    if (i >= text.size() ||
        std::toupper(static_cast<unsigned char>(text[i])) != kSelect[k]) {
      return false;
    }
  }
  return true;
}

/// Key-column names of a generated "CREATE [UNIQUE] INDEX n ON t (a, b)"
/// statement (how actions recovered from the audit trail get their
/// columns back without a dedicated audit column).
std::vector<std::string> ParseIndexColumns(const std::string& sql) {
  std::vector<std::string> out;
  size_t open = sql.find('(');
  size_t close = sql.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close <= open) {
    return out;
  }
  std::string inner = sql.substr(open + 1, close - open - 1);
  std::string current;
  for (char c : inner) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

RecommendationKind KindFromName(const std::string& name) {
  for (RecommendationKind kind :
       {RecommendationKind::kCollectStatistics,
        RecommendationKind::kModifyToBtree, RecommendationKind::kCreateIndex,
        RecommendationKind::kDropIndex}) {
    if (name == RecommendationKindName(kind)) return kind;
  }
  return RecommendationKind::kCollectStatistics;
}

ActionState StateFromName(const std::string& name) {
  for (ActionState state :
       {ActionState::kProposed, ActionState::kRevalidated,
        ActionState::kApplying, ActionState::kApplied, ActionState::kVerifying,
        ActionState::kKept, ActionState::kRolledBack, ActionState::kRejected,
        ActionState::kFailed}) {
    if (name == ActionStateName(state)) return state;
  }
  return ActionState::kFailed;
}

bool IsStructural(RecommendationKind kind) {
  return kind != RecommendationKind::kCollectStatistics;
}

}  // namespace

const char* ActionStateName(ActionState state) {
  switch (state) {
    case ActionState::kProposed:
      return "PROPOSED";
    case ActionState::kRevalidated:
      return "REVALIDATED";
    case ActionState::kApplying:
      return "APPLYING";
    case ActionState::kApplied:
      return "APPLIED";
    case ActionState::kVerifying:
      return "VERIFYING";
    case ActionState::kKept:
      return "KEPT";
    case ActionState::kRolledBack:
      return "ROLLED_BACK";
    case ActionState::kRejected:
      return "REJECTED";
    case ActionState::kFailed:
      return "FAILED";
  }
  return "?";
}

bool ActionStateIsTerminal(ActionState state) {
  switch (state) {
    case ActionState::kKept:
    case ActionState::kRolledBack:
    case ActionState::kRejected:
    case ActionState::kFailed:
      return true;
    default:
      return false;
  }
}

Status CreateTuningSchema(Database* workload_db) {
  if (workload_db == nullptr) {
    return Status::InvalidArgument("null workload_db");
  }
  auto r = workload_db->Execute(kAuditDdl);
  IMON_RETURN_IF_ERROR(r.status());
  auto p = workload_db->Execute(kProvenanceDdl);
  return p.status();
}

TuningOrchestrator::TuningOrchestrator(Database* monitored,
                                       Database* workload_db,
                                       TunerConfig config, const Clock* clock)
    : monitored_(monitored),
      workload_db_(workload_db),
      config_(config),
      clock_(clock != nullptr ? clock : monitored->clock()) {}

TuningOrchestrator::~TuningOrchestrator() = default;

Status TuningOrchestrator::Initialize() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (initialized_) return Status::OK();
  ddl_session_ = monitored_->CreateInternalSession();
  if (workload_db_ != nullptr) {
    audit_session_ = workload_db_->CreateInternalSession();
    auto r = workload_db_->Execute(kAuditDdl, audit_session_.get());
    IMON_RETURN_IF_ERROR(r.status());
    auto p = workload_db_->Execute(kProvenanceDdl, audit_session_.get());
    IMON_RETURN_IF_ERROR(p.status());
  }
  metrics::MetricsRegistry* registry = monitored_->metrics();
  m_ticks_ = registry->GetCounter("tuner.ticks");
  m_submitted_ = registry->GetCounter("tuner.submitted");
  m_rejected_ = registry->GetCounter("tuner.rejected");
  m_applied_ = registry->GetCounter("tuner.applied");
  m_apply_failures_ = registry->GetCounter("tuner.apply_failures");
  m_kept_ = registry->GetCounter("tuner.kept");
  m_rolled_back_ = registry->GetCounter("tuner.rolled_back");
  m_cooldown_skips_ = registry->GetCounter("tuner.cooldown_skips");
  m_reconciled_ = registry->GetCounter("tuner.reconciled");
  IMON_RETURN_IF_ERROR(Recover());
  IMON_RETURN_IF_ERROR(RecoverProvenance());
  initialized_ = true;
  return Status::OK();
}

void TuningOrchestrator::set_apply_fault_hook(std::function<Status()> hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  apply_fault_hook_ = std::move(hook);
}

Status TuningOrchestrator::Submit(
    const std::vector<Recommendation>& recommendations) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!initialized_) {
    return Status::Internal("TuningOrchestrator not initialized");
  }
  for (const Recommendation& rec : recommendations) {
    bool duplicate = false;
    for (const TuningAction& a : actions_) {
      if (a.sql == rec.sql && !ActionStateIsTerminal(a.state)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      ++stats_.deduplicated;
      continue;
    }
    TuningAction action;
    action.id = next_action_id_++;
    action.state = ActionState::kProposed;
    action.kind = rec.kind;
    action.table = rec.table;
    action.index_name = rec.index_name;
    action.columns = rec.columns;
    action.sql = rec.sql;
    action.inverse_sql = rec.inverse_sql;
    action.proposed_benefit = rec.estimated_benefit;
    action.proposed_at = NowMicros();
    action.detail = rec.reason;
    action.decision_id = rec.decision_id;
    action.rule = rec.rule;
    ++stats_.submitted;
    if (m_submitted_ != nullptr) m_submitted_->Add();
    Audit(action);
    // Freeze the analyzer's evidence behind this decision. Rules that
    // argue from catalog state carry no templates; they still get one
    // row (fingerprint 0) so every action explains itself.
    ProvenanceRecord base;
    base.decision_id = action.decision_id;
    base.action_id = action.id;
    base.rule = action.rule;
    base.recommended_at = action.proposed_at;
    if (rec.evidence.empty()) {
      RecordProvenance(base);
    } else {
      for (const analyzer::RecommendationEvidence& ev : rec.evidence) {
        ProvenanceRecord record = base;
        record.fingerprint = ev.fingerprint;
        record.executions = ev.executions;
        record.total_actual = ev.total_actual;
        record.total_estimated = ev.total_estimated;
        RecordProvenance(record);
      }
    }
    actions_.push_back(std::move(action));
  }
  return Status::OK();
}

Status TuningOrchestrator::Tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!initialized_) {
    return Status::Internal("TuningOrchestrator not initialized");
  }
  ++stats_.ticks;
  if (m_ticks_ != nullptr) m_ticks_->Add();
  ReconcileApplying();
  JudgeVerifying();
  RevalidateProposed();
  ApplyOne();
  return Status::OK();
}

void TuningOrchestrator::ReconcileApplying() {
  for (TuningAction& action : actions_) {
    if (action.state != ActionState::kApplying) continue;
    ++stats_.reconciled;
    if (m_reconciled_ != nullptr) m_reconciled_->Add();
    if (AppliedEffectVisible(action)) {
      // The DDL completed but no baseline was captured, so verification
      // is impossible: restore the pre-apply physical design.
      ExecuteInverse(&action, "recovered: interrupted apply undone");
    } else {
      action.decided_at = NowMicros();
      Transition(&action, ActionState::kFailed,
                 "recovered: apply never completed");
    }
  }
}

void TuningOrchestrator::JudgeVerifying() {
  int64_t window_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          config_.verification_window)
          .count();
  for (TuningAction& action : actions_) {
    if (action.state != ActionState::kVerifying) continue;
    if (NowMicros() < action.applied_at + window_micros) continue;
    StatementCosts observed =
        MeasureStatementCosts(action.table, action.applied_seq);
    action.observed_cost = observed.mean_cost;
    action.observed_execs = observed.executions;
    action.decided_at = NowMicros();
    if (observed.executions > 0) {
      // The verdict measurement joins the same flight-recorder series as
      // the baseline, so imp_metrics_history shows cost before and after.
      monitored_->metrics_history()->Record(
          CostSeriesName(action.table),
          std::llround(observed.mean_cost * 1e6), NowMicros());
    }
    std::ostringstream os;
    os << "baseline " << action.baseline_cost << " over "
       << action.baseline_execs << " execs; observed " << observed.mean_cost
       << " over " << observed.executions << " execs";
    if (action.baseline_execs == 0 ||
        observed.executions < config_.min_verify_executions) {
      ++stats_.kept;
      if (m_kept_ != nullptr) m_kept_->Add();
      Transition(&action, ActionState::kKept,
                 "kept: insufficient observations (" + os.str() + ")");
    } else if (observed.mean_cost >
               action.baseline_cost * (1.0 + config_.regression_tolerance)) {
      ExecuteInverse(&action, "regression beyond tolerance: " + os.str());
    } else {
      ++stats_.kept;
      if (m_kept_ != nullptr) m_kept_->Add();
      Transition(&action, ActionState::kKept,
                 "kept: within tolerance (" + os.str() + ")");
    }
  }
}

void TuningOrchestrator::RevalidateProposed() {
  for (TuningAction& action : actions_) {
    if (action.state != ActionState::kProposed) continue;
    if (Revalidate(&action)) {
      Transition(&action, ActionState::kRevalidated, action.detail);
    } else {
      ++stats_.rejected;
      if (m_rejected_ != nullptr) m_rejected_->Add();
      action.decided_at = NowMicros();
      Transition(&action, ActionState::kRejected, action.detail);
    }
  }
}

bool TuningOrchestrator::Revalidate(TuningAction* action) {
  const catalog::Catalog* catalog = monitored_->catalog();
  switch (action->kind) {
    case RecommendationKind::kCollectStatistics:
      action->detail = "revalidated: statistics collection is always safe";
      return true;
    case RecommendationKind::kModifyToBtree: {
      auto table = catalog->GetTable(action->table);
      if (!table.ok()) {
        action->detail = "rejected: table no longer exists";
        return false;
      }
      if (table->structure == catalog::StorageStructure::kBtree) {
        action->detail = "rejected: table is already a B-Tree";
        return false;
      }
      double main = static_cast<double>(std::max<int64_t>(1, table->main_pages));
      double ratio = static_cast<double>(table->overflow_pages) / main;
      if (ratio <= config_.overflow_threshold) {
        std::ostringstream os;
        os << "rejected: overflow ratio " << ratio
           << " no longer exceeds threshold " << config_.overflow_threshold;
        action->detail = os.str();
        return false;
      }
      std::ostringstream os;
      os << "revalidated: overflow ratio " << ratio << " still exceeds "
         << config_.overflow_threshold;
      action->detail = os.str();
      return true;
    }
    case RecommendationKind::kCreateIndex: {
      if (!catalog->HasTable(action->table)) {
        action->detail = "rejected: table no longer exists";
        return false;
      }
      if (catalog->GetIndex(action->index_name).ok()) {
        action->detail = "rejected: index already exists";
        return false;
      }
      if (config_.refresh_statistics) {
        // Best effort: stale statistics only weaken the what-if rerun.
        (void)ExecuteDdl("ANALYZE " + action->table);
      }
      double benefit = RevalidateIndexBenefit(*action);
      action->revalidated_benefit = benefit;
      std::ostringstream os;
      if (benefit < config_.min_revalidated_benefit) {
        os << "rejected: revalidated benefit " << benefit
           << " below threshold " << config_.min_revalidated_benefit
           << " (proposed " << action->proposed_benefit << ")";
        action->detail = os.str();
        return false;
      }
      os << "revalidated: what-if rerun confirms benefit " << benefit;
      action->detail = os.str();
      return true;
    }
    case RecommendationKind::kDropIndex: {
      auto index = catalog->GetIndex(action->index_name);
      if (!index.ok() || index->is_virtual) {
        action->detail = "rejected: index no longer exists";
        return false;
      }
      auto frequencies = monitored_->monitor()->IndexFrequencies();
      auto it = frequencies.find(index->id);
      if (it != frequencies.end() && it->second > 0) {
        action->detail = "rejected: index has been used since the analysis ("
                         + std::to_string(it->second) + " references)";
        return false;
      }
      action->detail = "revalidated: index still unused by the workload";
      return true;
    }
  }
  action->detail = "rejected: unknown recommendation kind";
  return false;
}

double TuningOrchestrator::RevalidateIndexBenefit(const TuningAction& action) {
  auto table = monitored_->catalog()->GetTable(action.table);
  if (!table.ok()) return 0;

  catalog::IndexInfo virtual_index;
  virtual_index.id = -1000 - action.id;
  virtual_index.name = "__tuner_whatif_" + action.index_name;
  virtual_index.table_id = table->id;
  virtual_index.is_virtual = true;
  for (const std::string& column : action.columns) {
    auto ordinal = table->FindColumn(column);
    if (!ordinal.has_value()) return 0;
    virtual_index.key_columns.push_back(*ordinal);
  }
  if (virtual_index.key_columns.empty()) return 0;

  // What-if over the compressed workload: one representative plan per
  // distinct statement shape, weighted by the template's exact execution
  // count — O(distinct templates) optimizer calls instead of one per
  // recorded statement text.
  const monitor::Monitor* monitor = monitored_->monitor();
  double benefit = 0;
  for (const auto& tmpl : monitor->SnapshotTemplates()) {
    if (std::find(tmpl.ref_tables.begin(), tmpl.ref_tables.end(),
                  table->id) == tmpl.ref_tables.end()) {
      continue;
    }
    if (!IsSelect(tmpl.sample_text)) continue;
    auto base = monitored_->WhatIfPlan(tmpl.sample_text, {});
    if (!base.ok()) continue;
    auto with = monitored_->WhatIfPlan(tmpl.sample_text, {virtual_index});
    if (!with.ok()) continue;
    double gain = base->summary.TotalCost() - with->summary.TotalCost();
    benefit += static_cast<double>(tmpl.executions) * std::max(0.0, gain);
  }
  return benefit;
}

void TuningOrchestrator::ApplyOne() {
  int inflight = 0;
  for (const TuningAction& action : actions_) {
    if (action.state == ActionState::kApplying ||
        action.state == ActionState::kApplied ||
        action.state == ActionState::kVerifying) {
      ++inflight;
    }
  }
  if (inflight >= config_.max_inflight) return;

  TuningAction* chosen = nullptr;
  for (TuningAction& action : actions_) {
    if (action.state != ActionState::kRevalidated) continue;
    if (IsStructural(action.kind)) {
      auto it = last_apply_micros_.find(action.table);
      int64_t cooldown_micros =
          std::chrono::duration_cast<std::chrono::microseconds>(
              config_.table_cooldown)
              .count();
      if (it != last_apply_micros_.end() &&
          NowMicros() < it->second + cooldown_micros) {
        ++stats_.cooldown_skips;
        if (m_cooldown_skips_ != nullptr) m_cooldown_skips_->Add();
        continue;
      }
    }
    chosen = &action;
    break;
  }
  if (chosen == nullptr) return;
  TuningAction& action = *chosen;

  Transition(&action, ActionState::kApplying, "applying: " + action.sql);
  // Crash point 1: before the DDL touches the catalog.
  if (apply_fault_hook_) {
    Status s = apply_fault_hook_();
    if (!s.ok()) {
      ++stats_.apply_failures;
      if (m_apply_failures_ != nullptr) m_apply_failures_->Add();
      return;  // stays APPLYING; reconciled on the next tick
    }
  }
  Status ddl = ExecuteDdl(action.sql);
  if (!ddl.ok()) {
    ++stats_.apply_failures;
    if (m_apply_failures_ != nullptr) m_apply_failures_->Add();
    action.decided_at = NowMicros();
    Transition(&action, ActionState::kFailed,
               "apply failed: " + ddl.ToString());
    return;
  }
  // Crash point 2: after the DDL, before the baseline exists.
  if (apply_fault_hook_) {
    Status s = apply_fault_hook_();
    if (!s.ok()) {
      ++stats_.apply_failures;
      if (m_apply_failures_ != nullptr) m_apply_failures_->Add();
      return;  // stays APPLYING; reconciliation undoes the DDL
    }
  }

  ++stats_.applied;
  if (m_applied_ != nullptr) m_applied_->Add();
  action.applied_at = NowMicros();
  if (IsStructural(action.kind)) {
    last_apply_micros_[action.table] = NowMicros();
    StatementCosts baseline = MeasureStatementCosts(action.table, 0);
    // Feed the measurement into the flight recorder, then read the
    // baseline back from the raw-resolution rollup over the pre-apply
    // verification window: earlier measurements against the same table
    // (previous applies, verification verdicts) sharpen the baseline
    // beyond the one instantaneous scalar. With history compiled out the
    // aggregate is empty and the scalar stands.
    metrics::MetricsHistory* history = monitored_->metrics_history();
    const std::string series = CostSeriesName(action.table);
    int64_t apply_now = NowMicros();
    if (baseline.executions > 0) {
      history->Record(series, std::llround(baseline.mean_cost * 1e6),
                      apply_now);
    }
    int64_t window_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            config_.verification_window)
            .count();
    metrics::HistoryAggregate pre_apply = history->Aggregate(
        series, metrics::MetricsHistory::kResolutionSeconds[0],
        apply_now - window_micros, apply_now);
    action.baseline_cost =
        pre_apply.empty() ? baseline.mean_cost : pre_apply.Mean() / 1e6;
    action.baseline_execs = baseline.executions;
    action.applied_seq = baseline.max_seq;
    std::ostringstream os;
    os << "applied; baseline " << action.baseline_cost << " over "
       << baseline.executions << " execs";
    if (!pre_apply.empty()) {
      os << " (history: " << pre_apply.count << " samples over "
         << pre_apply.ticks << " ticks)";
    }
    os << StageLatencyNote();
    Transition(&action, ActionState::kApplied, os.str());
    Transition(&action, ActionState::kVerifying,
               "verification window open");
  } else {
    Transition(&action, ActionState::kApplied, "applied");
    ++stats_.kept;
    if (m_kept_ != nullptr) m_kept_->Add();
    action.decided_at = NowMicros();
    Transition(&action, ActionState::kKept,
               "kept: statistics collection has no inverse to verify");
  }
}

std::string TuningOrchestrator::StageLatencyNote() const {
  // Observability only: record the execute-stage latency totals at this
  // point so the audit trail can be correlated with imp_stage_latency.
  auto r = monitored_->Execute(
      "SELECT name, count, total_nanos FROM imp_stage_latency",
      ddl_session_.get());
  if (!r.ok()) return "";
  for (const Row& row : r->rows) {
    if (row.size() >= 3 && row[0].AsText() == "execute") {
      return "; stage execute count=" + std::to_string(row[1].AsInt()) +
             " total_nanos=" + std::to_string(row[2].AsInt());
    }
  }
  return "";
}

TuningOrchestrator::StatementCosts TuningOrchestrator::MeasureStatementCosts(
    const std::string& table, int64_t min_seq_exclusive) const {
  StatementCosts out;
  out.max_seq = min_seq_exclusive;
  auto table_info = monitored_->catalog()->GetTable(table);
  if (!table_info.ok()) return out;
  const monitor::Monitor* monitor = monitored_->monitor();

  std::unordered_set<uint64_t> select_hashes;
  {
    std::unordered_set<uint64_t> table_hashes;
    for (const auto& ref : monitor->SnapshotReferences()) {
      if (ref.type == monitor::RefType::kTable &&
          ref.table_id == table_info->id) {
        table_hashes.insert(ref.hash);
      }
    }
    for (const auto& statement : monitor->SnapshotStatements()) {
      if (table_hashes.count(statement.hash) != 0 &&
          IsSelect(statement.text)) {
        select_hashes.insert(statement.hash);
      }
    }
  }

  double total_cost = 0;
  for (const auto& record :
       monitor->SnapshotWorkload(min_seq_exclusive)) {
    out.max_seq = std::max(out.max_seq, record.seq);
    if (select_hashes.count(record.hash) == 0) continue;
    total_cost += record.actual_cost;
    ++out.executions;
  }
  if (out.executions > 0) {
    out.mean_cost = total_cost / static_cast<double>(out.executions);
  }
  return out;
}

Status TuningOrchestrator::ExecuteDdl(const std::string& sql) {
  auto r = monitored_->Execute(sql, ddl_session_.get());
  return r.status();
}

Status TuningOrchestrator::ExecuteInverse(TuningAction* action,
                                          const std::string& why) {
  if (action->inverse_sql.empty()) {
    action->decided_at = NowMicros();
    Transition(action, ActionState::kFailed,
               why + "; no inverse statement to execute");
    return Status::Internal("no inverse statement");
  }
  Status status = ExecuteDdl(action->inverse_sql);
  action->decided_at = NowMicros();
  if (status.ok()) {
    ++stats_.rolled_back;
    if (m_rolled_back_ != nullptr) m_rolled_back_->Add();
    Transition(action, ActionState::kRolledBack,
               why + "; executed " + action->inverse_sql);
  } else {
    Transition(action, ActionState::kFailed,
               why + "; rollback failed: " + status.ToString());
  }
  return status;
}

bool TuningOrchestrator::AppliedEffectVisible(
    const TuningAction& action) const {
  const catalog::Catalog* catalog = monitored_->catalog();
  switch (action.kind) {
    case RecommendationKind::kCreateIndex: {
      auto index = catalog->GetIndex(action.index_name);
      return index.ok() && !index->is_virtual;
    }
    case RecommendationKind::kModifyToBtree: {
      auto table = catalog->GetTable(action.table);
      return table.ok() &&
             table->structure == catalog::StorageStructure::kBtree;
    }
    case RecommendationKind::kDropIndex:
      return !catalog->GetIndex(action.index_name).ok();
    case RecommendationKind::kCollectStatistics:
      return false;  // ANALYZE leaves no undoable mark
  }
  return false;
}

void TuningOrchestrator::Transition(TuningAction* action, ActionState state,
                                    const std::string& detail) {
  action->state = state;
  if (!detail.empty()) action->detail = detail;
  Audit(*action);
}

void TuningOrchestrator::Audit(const TuningAction& action) {
  if (workload_db_ == nullptr || audit_session_ == nullptr) return;
  double benefit = action.revalidated_benefit != 0
                       ? action.revalidated_benefit
                       : action.proposed_benefit;
  std::string sql =
      std::string("INSERT INTO ") + kAuditTable + " VALUES (" +
      std::to_string(action.id) + ", " + std::to_string(next_event_seq_++) +
      ", " + std::to_string(NowMicros()) + ", " +
      SqlLiteral(Value::Text(ActionStateName(action.state))) + ", " +
      SqlLiteral(Value::Text(RecommendationKindName(action.kind))) + ", " +
      SqlLiteral(Value::Text(action.table)) + ", " +
      SqlLiteral(Value::Text(action.index_name)) + ", " +
      SqlLiteral(Value::Text(action.sql)) + ", " +
      SqlLiteral(Value::Text(action.inverse_sql)) + ", " +
      SqlLiteral(Value::Double(benefit)) + ", " +
      SqlLiteral(Value::Double(action.baseline_cost)) + ", " +
      std::to_string(action.baseline_execs) + ", " +
      std::to_string(action.applied_seq) + ", " +
      SqlLiteral(Value::Double(action.observed_cost)) + ", " +
      std::to_string(action.observed_execs) + ", " +
      SqlLiteral(Value::Text(action.detail)) + ", " +
      std::to_string(action.decision_id) + ", " +
      SqlLiteral(Value::Text(action.rule)) + ")";
  // Audit failures must not wedge the loop; the live imp_tuning_actions
  // view stays correct regardless.
  (void)workload_db_->Execute(sql, audit_session_.get());
}

Status TuningOrchestrator::Recover() {
  if (workload_db_ == nullptr || audit_session_ == nullptr) {
    return Status::OK();
  }
  auto r = workload_db_->Execute(
      std::string("SELECT * FROM ") + kAuditTable, audit_session_.get());
  IMON_RETURN_IF_ERROR(r.status());
  if (r->rows.empty()) return Status::OK();

  std::map<std::string, int> col;
  for (size_t i = 0; i < r->columns.size(); ++i) {
    col[r->columns[i]] = static_cast<int>(i);
  }
  for (const char* required :
       {"action_id", "event_seq", "event_at", "state", "kind", "table_name",
        "index_name", "action_sql", "inverse_sql", "benefit", "baseline_cost",
        "baseline_execs", "applied_seq", "observed_cost", "observed_execs",
        "detail"}) {
    if (col.find(required) == col.end()) {
      return Status::Corruption(std::string("wl_tuning_actions misses ") +
                                required);
    }
  }

  struct Latest {
    int64_t event_seq = -1;
    const Row* row = nullptr;
    int64_t first_event_at = 0;
  };
  std::map<int64_t, Latest> latest;  // ordered by action_id
  for (const Row& row : r->rows) {
    int64_t action_id = row[col["action_id"]].AsInt();
    int64_t event_seq = row[col["event_seq"]].AsInt();
    int64_t event_at = row[col["event_at"]].AsInt();
    next_event_seq_ = std::max(next_event_seq_, event_seq + 1);
    next_action_id_ = std::max(next_action_id_, action_id + 1);
    Latest& entry = latest[action_id];
    if (entry.row == nullptr || event_at < entry.first_event_at) {
      entry.first_event_at = event_at;
    }
    if (event_seq > entry.event_seq) {
      entry.event_seq = event_seq;
      entry.row = &row;
    }
    // Cooldowns survive restarts: every recorded apply start counts.
    const std::string& state = row[col["state"]].AsText();
    if (state == ActionStateName(ActionState::kApplying)) {
      const std::string& table = row[col["table_name"]].AsText();
      std::string kind = row[col["kind"]].AsText();
      if (IsStructural(KindFromName(kind)) && !table.empty()) {
        int64_t& last = last_apply_micros_[table];
        last = std::max(last, event_at);
      }
    }
  }

  for (const auto& [action_id, entry] : latest) {
    const Row& row = *entry.row;
    TuningAction action;
    action.id = action_id;
    action.state = StateFromName(row[col["state"]].AsText());
    action.kind = KindFromName(row[col["kind"]].AsText());
    action.table = row[col["table_name"]].AsText();
    action.index_name = row[col["index_name"]].AsText();
    action.sql = row[col["action_sql"]].AsText();
    action.inverse_sql = row[col["inverse_sql"]].AsText();
    action.proposed_benefit = row[col["benefit"]].AsDouble();
    action.baseline_cost = row[col["baseline_cost"]].AsDouble();
    action.baseline_execs = row[col["baseline_execs"]].AsInt();
    action.applied_seq = row[col["applied_seq"]].AsInt();
    action.observed_cost = row[col["observed_cost"]].AsDouble();
    action.observed_execs = row[col["observed_execs"]].AsInt();
    action.detail = row[col["detail"]].AsText();
    // Provenance columns are optional: an audit trail written before
    // they existed recovers with decision_id 0 / empty rule instead of
    // failing Corruption.
    auto decision_it = col.find("decision_id");
    if (decision_it != col.end()) {
      action.decision_id = row[decision_it->second].AsInt();
    }
    auto rule_it = col.find("rule");
    if (rule_it != col.end()) {
      action.rule = row[rule_it->second].AsText();
    }
    action.proposed_at = entry.first_event_at;
    if (action.kind == RecommendationKind::kCreateIndex) {
      action.columns = ParseIndexColumns(action.sql);
    }
    switch (action.state) {
      case ActionState::kApplied:
      case ActionState::kVerifying:
        // Resume the observation window where the crash left it.
        action.state = ActionState::kVerifying;
        action.applied_at = row[col["event_at"]].AsInt();
        break;
      case ActionState::kRevalidated:
        // Revalidate again: the world may have moved since.
        action.state = ActionState::kProposed;
        break;
      case ActionState::kApplying:
        // Interrupted apply; the next tick reconciles it against the
        // catalog.
        break;
      default:
        break;
    }
    actions_.push_back(std::move(action));
  }
  return Status::OK();
}

void TuningOrchestrator::RecordProvenance(ProvenanceRecord record) {
  if (workload_db_ != nullptr && audit_session_ != nullptr) {
    std::string sql =
        std::string("INSERT INTO ") + kProvenanceTable + " VALUES (" +
        std::to_string(record.decision_id) + ", " +
        std::to_string(record.action_id) + ", " +
        SqlLiteral(Value::Text(record.rule)) + ", " +
        std::to_string(static_cast<int64_t>(record.fingerprint)) + ", " +
        std::to_string(record.executions) + ", " +
        SqlLiteral(Value::Double(record.total_actual)) + ", " +
        SqlLiteral(Value::Double(record.total_estimated)) + ", " +
        std::to_string(record.recommended_at) + ")";
    // Best effort, like Audit: losing an evidence row must not block
    // the tuning loop; the in-memory copy keeps imp_tuning_provenance
    // correct for this instance regardless.
    (void)workload_db_->Execute(sql, audit_session_.get());
  }
  provenance_.push_back(std::move(record));
}

Status TuningOrchestrator::RecoverProvenance() {
  if (workload_db_ == nullptr || audit_session_ == nullptr) {
    return Status::OK();
  }
  auto r = workload_db_->Execute(
      std::string("SELECT * FROM ") + kProvenanceTable, audit_session_.get());
  IMON_RETURN_IF_ERROR(r.status());
  if (r->rows.empty()) return Status::OK();

  std::map<std::string, int> col;
  for (size_t i = 0; i < r->columns.size(); ++i) {
    col[r->columns[i]] = static_cast<int>(i);
  }
  for (const char* required :
       {"decision_id", "action_id", "rule", "fingerprint", "executions",
        "total_actual", "total_estimated", "recommended_at"}) {
    if (col.find(required) == col.end()) {
      return Status::Corruption(std::string("wl_tuning_provenance misses ") +
                                required);
    }
  }
  for (const Row& row : r->rows) {
    ProvenanceRecord record;
    record.decision_id = row[col["decision_id"]].AsInt();
    record.action_id = row[col["action_id"]].AsInt();
    record.rule = row[col["rule"]].AsText();
    record.fingerprint =
        static_cast<uint64_t>(row[col["fingerprint"]].AsInt());
    record.executions = row[col["executions"]].AsInt();
    record.total_actual = row[col["total_actual"]].AsDouble();
    record.total_estimated = row[col["total_estimated"]].AsDouble();
    record.recommended_at = row[col["recommended_at"]].AsInt();
    provenance_.push_back(std::move(record));
  }
  return Status::OK();
}

std::string TuningOrchestrator::CostSeriesName(const std::string& table) {
  return "tuner.stmt_cost_micros." + table;
}

std::vector<TuningAction> TuningOrchestrator::SnapshotActions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return actions_;
}

std::vector<ProvenanceRecord> TuningOrchestrator::SnapshotProvenance() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return provenance_;
}

TunerStats TuningOrchestrator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

namespace {

using catalog::Column;

class TuningActionsProvider : public catalog::VirtualTableProvider {
 public:
  explicit TuningActionsProvider(const TuningOrchestrator* orchestrator)
      : orchestrator_(orchestrator) {}

  std::vector<ColumnInfo> Schema() const override {
    return {Column("action_id", TypeId::kInt),
            Column("state", TypeId::kText),
            Column("kind", TypeId::kText),
            Column("table_name", TypeId::kText),
            Column("index_name", TypeId::kText),
            Column("action_sql", TypeId::kText),
            Column("inverse_sql", TypeId::kText),
            Column("benefit", TypeId::kDouble),
            Column("baseline_cost", TypeId::kDouble),
            Column("observed_cost", TypeId::kDouble),
            Column("observed_execs", TypeId::kInt),
            Column("proposed_at", TypeId::kInt),
            Column("applied_at", TypeId::kInt),
            Column("decided_at", TypeId::kInt),
            Column("detail", TypeId::kText),
            Column("decision_id", TypeId::kInt),
            Column("rule", TypeId::kText)};
  }

  std::vector<Row> Rows(int64_t) const override {
    std::vector<Row> out;
    for (const TuningAction& a : orchestrator_->SnapshotActions()) {
      double benefit = a.revalidated_benefit != 0 ? a.revalidated_benefit
                                                  : a.proposed_benefit;
      out.push_back({Value::Int(a.id),
                     Value::Text(ActionStateName(a.state)),
                     Value::Text(RecommendationKindName(a.kind)),
                     Value::Text(a.table),
                     Value::Text(a.index_name),
                     Value::Text(a.sql),
                     Value::Text(a.inverse_sql),
                     Value::Double(benefit),
                     Value::Double(a.baseline_cost),
                     Value::Double(a.observed_cost),
                     Value::Int(a.observed_execs),
                     Value::Int(a.proposed_at),
                     Value::Int(a.applied_at),
                     Value::Int(a.decided_at),
                     Value::Text(a.detail),
                     Value::Int(a.decision_id),
                     Value::Text(a.rule)});
    }
    return out;
  }

 private:
  const TuningOrchestrator* orchestrator_;
};

class TuningProvenanceProvider : public catalog::VirtualTableProvider {
 public:
  explicit TuningProvenanceProvider(const TuningOrchestrator* orchestrator)
      : orchestrator_(orchestrator) {}

  std::vector<ColumnInfo> Schema() const override {
    return {Column("decision_id", TypeId::kInt),
            Column("action_id", TypeId::kInt),
            Column("rule", TypeId::kText),
            Column("fingerprint", TypeId::kInt),
            Column("executions", TypeId::kInt),
            Column("total_actual", TypeId::kDouble),
            Column("total_estimated", TypeId::kDouble),
            Column("recommended_at", TypeId::kInt)};
  }

  std::vector<Row> Rows(int64_t) const override {
    std::vector<Row> out;
    for (const ProvenanceRecord& p : orchestrator_->SnapshotProvenance()) {
      out.push_back({Value::Int(p.decision_id),
                     Value::Int(p.action_id),
                     Value::Text(p.rule),
                     Value::Int(static_cast<int64_t>(p.fingerprint)),
                     Value::Int(p.executions),
                     Value::Double(p.total_actual),
                     Value::Double(p.total_estimated),
                     Value::Int(p.recommended_at)});
    }
    return out;
  }

 private:
  const TuningOrchestrator* orchestrator_;
};

}  // namespace

Status RegisterTuningActionsTable(Database* db,
                                  const TuningOrchestrator* orchestrator) {
  if (db == nullptr || orchestrator == nullptr) {
    return Status::InvalidArgument("null database or orchestrator");
  }
  return db->RegisterVirtualTable(
      "imp_tuning_actions",
      std::make_shared<TuningActionsProvider>(orchestrator));
}

Status RegisterTuningProvenanceTable(Database* db,
                                     const TuningOrchestrator* orchestrator) {
  if (db == nullptr || orchestrator == nullptr) {
    return Status::InvalidArgument("null database or orchestrator");
  }
  return db->RegisterVirtualTable(
      "imp_tuning_provenance",
      std::make_shared<TuningProvenanceProvider>(orchestrator));
}

std::vector<monitor::LifecycleSpan> ActionLifecycleSpans(
    const std::vector<TuningAction>& actions, int64_t now_micros) {
  std::vector<monitor::LifecycleSpan> out;
  for (const TuningAction& a : actions) {
    monitor::LifecycleSpan span;
    span.category = "tuner";
    span.track_name = "tuner";
    span.track = a.id;
    span.name = std::string(RecommendationKindName(a.kind)) + " " +
                (a.index_name.empty() ? a.table : a.index_name) + " [" +
                ActionStateName(a.state) + "]";
    span.start_micros = a.proposed_at;
    span.end_micros = a.decided_at > 0 ? a.decided_at : now_micros;
    span.int_args = {{"decision_id", a.decision_id},
                     {"action_id", a.id}};
    span.text_args = {{"rule", a.rule},
                      {"state", ActionStateName(a.state)},
                      {"table", a.table},
                      {"sql", a.sql}};
    out.push_back(span);
    if (a.applied_at > 0 && IsStructural(a.kind)) {
      monitor::LifecycleSpan verify;
      verify.category = "tuner";
      verify.track_name = "tuner";
      verify.track = a.id;
      verify.name = "verify " + (a.index_name.empty() ? a.table
                                                      : a.index_name);
      verify.start_micros = a.applied_at;
      verify.end_micros = a.decided_at > 0 ? a.decided_at : now_micros;
      verify.int_args = {{"decision_id", a.decision_id},
                         {"action_id", a.id},
                         {"observed_execs", a.observed_execs}};
      verify.text_args = {{"rule", a.rule}};
      out.push_back(verify);
    }
  }
  return out;
}

}  // namespace imon::tuner
