#include "analyzer/analyzer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "common/clock.h"
#include "common/hash.h"
#include "optimizer/binder.h"
#include "sql/parser.h"

namespace imon::analyzer {

using catalog::IndexInfo;
using catalog::ObjectId;
using catalog::TableInfo;
using engine::QueryResult;

const char* RecommendationKindName(RecommendationKind kind) {
  switch (kind) {
    case RecommendationKind::kCollectStatistics:
      return "COLLECT STATISTICS";
    case RecommendationKind::kModifyToBtree:
      return "MODIFY TO BTREE";
    case RecommendationKind::kCreateIndex:
      return "CREATE INDEX";
    case RecommendationKind::kDropIndex:
      return "DROP INDEX";
  }
  return "?";
}

std::string AnalysisReport::ToString() const {
  std::ostringstream os;
  os << "=== Analyzer report ===\n";
  os << "statements analyzed: " << statements_analyzed
     << "  (cost mismatch flagged: " << cost_mismatch_statements << ")\n";
  os << "analysis time: " << analysis_micros / 1000 << " ms\n\n";
  os << "Recommendations (" << recommendations.size() << "):\n";
  for (const Recommendation& r : recommendations) {
    os << "  [" << RecommendationKindName(r.kind) << "] " << r.sql << "\n";
    os << "      reason: " << r.reason;
    if (r.estimated_benefit > 0) {
      os << "  (benefit ~" << static_cast<int64_t>(r.estimated_benefit)
         << " cost units";
      if (r.estimated_pages > 0) {
        os << ", ~" << static_cast<int64_t>(r.estimated_pages) << " pages";
      }
      os << ")";
    }
    os << "\n";
  }
  if (!trends.empty()) {
    os << "\nGrowth trends (fitted over the workload DB history):\n";
    for (const auto& t : trends) {
      os << "  " << t.table << ": " << static_cast<int64_t>(t.current_pages)
         << " pages, " << t.pages_per_day << " pages/day";
      if (std::isfinite(t.days_to_double) && t.days_to_double < 10000) {
        os << " (doubles in ~" << static_cast<int64_t>(t.days_to_double)
           << " days)";
      }
      os << "\n";
    }
  }
  if (!cost_diagram.empty()) {
    os << "\nTop statements by actual cost (actual / estimated / "
          "with virtual indexes):\n";
    int i = 1;
    for (const auto& c : cost_diagram) {
      os << "  Q" << i++ << ": " << static_cast<int64_t>(c.actual_cost)
         << " / " << static_cast<int64_t>(c.estimated_cost) << " / "
         << static_cast<int64_t>(c.virtual_estimated_cost) << "  freq "
         << c.frequency << "\n";
    }
  }
  return os.str();
}

Analyzer::Analyzer(engine::Database* monitored, engine::Database* workload_db,
                   AnalyzerConfig config)
    : monitored_(monitored), workload_db_(workload_db), config_(config) {}

engine::Session* Analyzer::MonitoredSession() {
  if (monitored_session_ == nullptr) {
    monitored_session_ = monitored_->CreateSession();
  }
  return monitored_session_.get();
}

engine::Session* Analyzer::WorkloadSession() {
  if (workload_session_ == nullptr) {
    workload_session_ = workload_db_->CreateSession();
  }
  return workload_session_.get();
}

Result<std::pair<std::vector<Row>, std::map<std::string, int>>>
Analyzer::Fetch(const std::string& logical_name) {
  bool from_workload = workload_db_ != nullptr;
  engine::Database* source = from_workload ? workload_db_ : monitored_;
  engine::Session* session =
      from_workload ? WorkloadSession() : MonitoredSession();
  std::string table = (from_workload ? "wl_" : "imp_") + logical_name;
  IMON_ASSIGN_OR_RETURN(QueryResult r,
                        source->Execute("SELECT * FROM " + table, session));
  std::map<std::string, int> cols;
  for (size_t i = 0; i < r.columns.size(); ++i) {
    cols[r.columns[i]] = static_cast<int>(i);
  }
  return std::make_pair(std::move(r.rows), std::move(cols));
}

namespace {

bool IsSelectText(const std::string& text) {
  std::string head = text.substr(0, 6);
  for (char& c : head) c = static_cast<char>(std::tolower(c));
  return head == "select";
}

}  // namespace

Result<std::vector<Analyzer::StatementInfo>> Analyzer::LoadStatements() {
  IMON_ASSIGN_OR_RETURN(auto templates, Fetch("templates"));
  auto& [rows, cols] = templates;
  int fp_col = cols.at("fingerprint");
  int hash_col = cols.at("sample_hash");
  int text_col = cols.at("sample_text");
  int exec_col = cols.at("executions");
  int actual_col = cols.at("total_actual");
  int est_col = cols.at("total_estimated");
  int first_col = cols.at("first_seen");
  int tables_col = cols.at("ref_tables");

  // One current row per fingerprint in wl_templates and imp_templates
  // alike (the daemon upserts, the IMA snapshot merges shards); keep the
  // most-advanced row should a stale duplicate ever appear.
  std::map<uint64_t, StatementInfo> by_fingerprint;
  for (const Row& row : rows) {
    uint64_t fingerprint = static_cast<uint64_t>(row[fp_col].AsInt());
    StatementInfo info;
    info.fingerprint = fingerprint;
    info.hash = static_cast<uint64_t>(row[hash_col].AsInt());
    info.text = row[text_col].AsText();
    info.executions = row[exec_col].AsInt();
    info.frequency = std::max<int64_t>(1, info.executions);
    info.total_actual = row[actual_col].AsDouble();
    info.total_estimated = row[est_col].AsDouble();
    info.first_seen_micros = row[first_col].AsInt();
    info.is_select = IsSelectText(info.text);
    std::set<ObjectId> tables;
    const std::string csv = row[tables_col].AsText();
    for (size_t pos = 0; pos < csv.size();) {
      size_t comma = csv.find(',', pos);
      if (comma == std::string::npos) comma = csv.size();
      if (comma > pos) {
        tables.insert(std::stoll(csv.substr(pos, comma - pos)));
      }
      pos = comma + 1;
    }
    info.ref_tables.assign(tables.begin(), tables.end());
    auto it = by_fingerprint.find(fingerprint);
    if (it == by_fingerprint.end() ||
        it->second.executions < info.executions) {
      by_fingerprint[fingerprint] = std::move(info);
    }
  }

  std::vector<StatementInfo> out;
  out.reserve(by_fingerprint.size());
  for (auto& [fingerprint, info] : by_fingerprint) {
    out.push_back(std::move(info));
  }
  // Deterministic rule order: the greedy index search and R1's table
  // counting tie-break by (first_seen, fingerprint).
  std::sort(out.begin(), out.end(),
            [](const StatementInfo& a, const StatementInfo& b) {
              if (a.first_seen_micros != b.first_seen_micros) {
                return a.first_seen_micros < b.first_seen_micros;
              }
              return a.fingerprint < b.fingerprint;
            });
  return out;
}

Status Analyzer::RuleCostMismatch(
    const std::vector<StatementInfo>& statements, AnalysisReport* report) {
  // Per-template mean costs from the templates' exact rolling sums.
  // table -> the templates whose mismatch flagged it (the evidence).
  std::map<ObjectId, std::vector<const StatementInfo*>> flagged_tables;
  for (const StatementInfo& s : statements) {
    if (s.executions == 0) continue;
    double actual = s.total_actual / s.executions;
    double estimated = s.total_estimated / s.executions;
    if (actual <= 0 || estimated <= 0) continue;
    double ratio = std::max(actual, estimated) / std::min(actual, estimated);
    if (ratio < config_.cost_mismatch_factor) continue;
    ++report->cost_mismatch_statements;
    for (ObjectId t : s.ref_tables) flagged_tables[t].push_back(&s);
  }

  for (const auto& [table_id, support] : flagged_tables) {
    auto table = monitored_->catalog()->GetTableById(table_id);
    if (!table.ok()) continue;
    Recommendation rec;
    rec.kind = RecommendationKind::kCollectStatistics;
    rec.rule = "R1";
    rec.table = table->name;
    rec.reason =
        "actual and estimated costs differ significantly for " +
        std::to_string(support.size()) +
        " statement(s); statistics may be missing or outdated";
    rec.sql = "ANALYZE " + table->name;
    rec.supporting_statements = static_cast<int64_t>(support.size());
    for (const StatementInfo* s : support) {
      rec.evidence.push_back({s->fingerprint, s->executions, s->total_actual,
                              s->total_estimated});
    }
    report->recommendations.push_back(std::move(rec));
  }
  return Status::OK();
}

Status Analyzer::RuleMissingHistograms(AnalysisReport* report) {
  IMON_ASSIGN_OR_RETURN(auto attributes, Fetch("attributes"));
  auto& [rows, cols] = attributes;
  int table_col = cols.at("table_id");
  int name_col = cols.at("attr_name");
  int freq_col = cols.at("frequency");
  int histo_col = cols.at("has_histogram");

  std::map<ObjectId, std::set<std::string>> missing;
  for (const Row& row : rows) {
    if (row[freq_col].AsInt() <= 0) continue;       // never referenced
    if (row[histo_col].AsInt() != 0) continue;      // has statistics
    missing[row[table_col].AsInt()].insert(row[name_col].AsText());
  }
  for (const auto& [table_id, columns] : missing) {
    auto table = monitored_->catalog()->GetTableById(table_id);
    if (!table.ok()) continue;
    // Merge with an existing ANALYZE recommendation on the same table.
    bool merged = false;
    for (Recommendation& rec : report->recommendations) {
      if (rec.kind == RecommendationKind::kCollectStatistics &&
          rec.table == table->name) {
        merged = true;
        break;
      }
    }
    if (merged) continue;
    Recommendation rec;
    rec.kind = RecommendationKind::kCollectStatistics;
    rec.rule = "R2";
    rec.table = table->name;
    rec.columns.assign(columns.begin(), columns.end());
    rec.reason = "referenced attributes have no statistics; histograms "
                 "should be created";
    rec.sql = "ANALYZE " + table->name;
    rec.supporting_statements = static_cast<int64_t>(columns.size());
    report->recommendations.push_back(std::move(rec));
  }
  return Status::OK();
}

Status Analyzer::RuleOverflowPages(AnalysisReport* report) {
  IMON_ASSIGN_OR_RETURN(auto tables, Fetch("tables"));
  auto& [rows, cols] = tables;
  int name_col = cols.at("table_name");
  int storage_col = cols.at("storage");
  int main_col = cols.at("data_pages");
  int overflow_col = cols.at("overflow_pages");

  // Snapshots append over time; evaluate the latest row per table.
  std::map<std::string, Row> latest;
  for (const Row& row : rows) latest[row[name_col].AsText()] = row;

  for (const auto& [name, row] : latest) {
    // HEAP and HASH structures both degrade through overflow chains.
    const std::string storage = row[storage_col].AsText();
    if (storage != "HEAP" && storage != "HASH" && storage != "ISAM") continue;
    int64_t main_pages = row[main_col].AsInt();
    int64_t overflow = row[overflow_col].AsInt();
    if (main_pages <= 0) continue;
    if (static_cast<double>(overflow) <=
        config_.overflow_threshold * static_cast<double>(main_pages)) {
      continue;
    }
    Recommendation rec;
    rec.kind = RecommendationKind::kModifyToBtree;
    rec.rule = "R3";
    rec.table = name;
    rec.reason = "heap table has " + std::to_string(overflow) +
                 " overflow pages over " + std::to_string(main_pages) +
                 " main pages (>" +
                 std::to_string(static_cast<int>(config_.overflow_threshold *
                                                 100)) +
                 "%); restructure to B-Tree";
    rec.sql = "MODIFY " + name + " TO BTREE";
    // The inverse restores the structure the table has right now; the
    // IMA snapshot already told us it is one of HEAP/HASH/ISAM.
    rec.inverse_sql = "MODIFY " + name + " TO " + storage;
    report->recommendations.push_back(std::move(rec));
  }
  return Status::OK();
}

Status Analyzer::RuleUnusedIndexes(AnalysisReport* report) {
  IMON_ASSIGN_OR_RETURN(auto indexes, Fetch("indexes"));
  auto& [rows, cols] = indexes;
  int name_col = cols.at("index_name");
  int freq_col = cols.at("frequency");
  int unique_col = cols.at("is_unique");
  // Snapshots append; keep the max frequency ever recorded per index.
  std::map<std::string, std::pair<int64_t, bool>> usage;
  for (const Row& row : rows) {
    auto& entry = usage[row[name_col].AsText()];
    entry.first = std::max(entry.first, row[freq_col].AsInt());
    entry.second = row[unique_col].AsInt() != 0;
  }
  for (const auto& [name, entry] : usage) {
    if (entry.first > 0) continue;   // the optimizer used it
    if (entry.second) continue;      // unique indexes enforce constraints
    // Resolve the owning table and key columns from the live catalog so
    // the recommendation carries a machine-readable inverse (the tuner
    // recreates the index verbatim on rollback). An index that vanished
    // since the snapshot is stale data, not a recommendation.
    auto index = monitored_->catalog()->GetIndex(name);
    if (!index.ok() || index->is_virtual) continue;
    auto table = monitored_->catalog()->GetTableById(index->table_id);
    if (!table.ok()) continue;
    Recommendation rec;
    rec.kind = RecommendationKind::kDropIndex;
    rec.rule = "R5";
    rec.table = table->name;
    rec.index_name = name;
    std::string cols;
    for (int c : index->key_columns) {
      if (c < 0 || c >= static_cast<int>(table->columns.size())) continue;
      if (!cols.empty()) cols += ", ";
      cols += table->columns[c].name;
      rec.columns.push_back(table->columns[c].name);
    }
    rec.reason = "no recorded statement used this index; it only costs "
                 "space and write amplification";
    rec.sql = "DROP INDEX " + name;
    rec.inverse_sql =
        "CREATE INDEX " + name + " ON " + table->name + " (" + cols + ")";
    report->recommendations.push_back(std::move(rec));
  }
  return Status::OK();
}

Status Analyzer::BuildTrends(AnalysisReport* report) {
  if (workload_db_ == nullptr) return Status::OK();  // needs a time series
  IMON_ASSIGN_OR_RETURN(auto tables, Fetch("tables"));
  auto& [rows, cols] = tables;
  int ts_col = cols.at("captured_at");
  int name_col = cols.at("table_name");
  int pages_col = cols.at("data_pages");
  int overflow_col = cols.at("overflow_pages");
  int rows_col = cols.at("row_count");

  struct Series {
    std::vector<double> days;
    std::vector<double> pages;
    std::vector<double> row_counts;
  };
  std::map<std::string, Series> by_table;
  for (const Row& row : rows) {
    Series& s = by_table[row[name_col].AsText()];
    s.days.push_back(static_cast<double>(row[ts_col].AsInt()) /
                     (86400.0 * 1e6));
    s.pages.push_back(static_cast<double>(row[pages_col].AsInt() +
                                          row[overflow_col].AsInt()));
    s.row_counts.push_back(static_cast<double>(row[rows_col].AsInt()));
  }

  auto slope = [](const std::vector<double>& x,
                  const std::vector<double>& y) {
    double n = static_cast<double>(x.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      sx += x[i];
      sy += y[i];
      sxx += x[i] * x[i];
      sxy += x[i] * y[i];
    }
    double denom = n * sxx - sx * sx;
    if (denom <= 1e-12) return 0.0;
    return (n * sxy - sx * sy) / denom;
  };

  for (auto& [name, s] : by_table) {
    if (s.days.size() < 2 || s.days.front() == s.days.back()) continue;
    TableTrend trend;
    trend.table = name;
    trend.current_pages = s.pages.back();
    trend.pages_per_day = slope(s.days, s.pages);
    trend.rows_per_day = slope(s.days, s.row_counts);
    trend.days_to_double =
        trend.pages_per_day > 1e-9
            ? trend.current_pages / trend.pages_per_day
            : std::numeric_limits<double>::infinity();
    report->trends.push_back(std::move(trend));
  }
  return Status::OK();
}

Result<std::vector<IndexInfo>> Analyzer::GenerateCandidates(
    const std::vector<StatementInfo>& statements) {
  // Mine indexable columns per table from the statements' predicates.
  struct Candidate {
    ObjectId table_id;
    std::vector<int> columns;
  };
  std::set<std::pair<ObjectId, std::vector<int>>> seen;
  std::vector<Candidate> candidates;

  for (const StatementInfo& s : statements) {
    if (!s.is_select) continue;
    auto parsed = sql::Parse(s.text);
    if (!parsed.ok()) continue;
    auto* select = static_cast<sql::SelectStmt*>(parsed->get());
    optimizer::Binder binder(monitored_->catalog());
    auto bound = binder.BindSelect(select);
    if (!bound.ok()) continue;

    // Per-table: equality columns and range columns in this statement.
    std::map<int, std::set<int>> eq_cols, range_cols;
    for (const sql::Expr* c : bound->conjuncts) {
      using sql::BinaryOp;
      using sql::ExprKind;
      if (c->kind == ExprKind::kBetween &&
          c->lhs->kind == ExprKind::kColumnRef) {
        range_cols[c->lhs->bound_table].insert(c->lhs->bound_column);
        continue;
      }
      if (c->kind != ExprKind::kBinary) continue;
      const sql::Expr* l = c->lhs.get();
      const sql::Expr* r = c->rhs.get();
      bool l_col = l->kind == ExprKind::kColumnRef;
      bool r_col = r->kind == ExprKind::kColumnRef;
      // join equi columns are equality candidates on both tables
      if (c->binary_op == BinaryOp::kEq && l_col && r_col &&
          l->bound_table != r->bound_table) {
        eq_cols[l->bound_table].insert(l->bound_column);
        eq_cols[r->bound_table].insert(r->bound_column);
        continue;
      }
      bool l_lit = l->kind == ExprKind::kLiteral;
      bool r_lit = r->kind == ExprKind::kLiteral;
      const sql::Expr* col = l_col && r_lit ? l : (r_col && l_lit ? r : nullptr);
      if (col == nullptr) continue;
      switch (c->binary_op) {
        case BinaryOp::kEq:
          eq_cols[col->bound_table].insert(col->bound_column);
          break;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          range_cols[col->bound_table].insert(col->bound_column);
          break;
        default:
          break;
      }
    }

    auto add = [&](ObjectId table_id, std::vector<int> columns) {
      if (columns.empty() ||
          static_cast<int>(columns.size()) > config_.max_index_key_columns) {
        return;
      }
      auto key = std::make_pair(table_id, columns);
      if (!seen.insert(key).second) return;
      candidates.push_back({table_id, std::move(columns)});
    };

    for (size_t t = 0; t < bound->tables.size(); ++t) {
      if (bound->tables[t].is_virtual) continue;
      ObjectId table_id = bound->tables[t].info.id;
      for (int c : eq_cols[static_cast<int>(t)]) {
        add(table_id, {c});
        // Composite: equality column + second predicate column.
        for (int c2 : eq_cols[static_cast<int>(t)]) {
          if (c2 != c) add(table_id, {c, c2});
        }
        for (int c2 : range_cols[static_cast<int>(t)]) {
          if (c2 != c) add(table_id, {c, c2});
        }
      }
      for (int c : range_cols[static_cast<int>(t)]) add(table_id, {c});
    }
  }

  // Drop candidates duplicating an existing index prefix.
  std::vector<IndexInfo> out;
  int next_id = -1;
  for (const Candidate& c : candidates) {
    bool duplicate = false;
    for (const IndexInfo& existing :
         monitored_->catalog()->IndexesOnTable(c.table_id)) {
      if (existing.key_columns.size() >= c.columns.size() &&
          std::equal(c.columns.begin(), c.columns.end(),
                     existing.key_columns.begin())) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    auto table = monitored_->catalog()->GetTableById(c.table_id);
    if (!table.ok()) continue;
    IndexInfo vi;
    vi.id = next_id--;
    vi.table_id = c.table_id;
    vi.key_columns = c.columns;
    vi.is_virtual = true;
    std::string name = "vidx_" + table->name;
    for (int col : c.columns) name += "_" + table->columns[col].name;
    vi.name = name;
    out.push_back(std::move(vi));
  }
  return out;
}

Status Analyzer::RuleIndexSelection(
    const std::vector<StatementInfo>& statements, AnalysisReport* report) {
  IMON_ASSIGN_OR_RETURN(std::vector<IndexInfo> candidates,
                        GenerateCandidates(statements));
  if (candidates.empty()) return Status::OK();

  // Relevant SELECT statements and their base cost under the current set.
  struct Workload {
    const StatementInfo* stmt;
    double cost;  // with chosen set
  };
  std::vector<Workload> workload;
  for (const StatementInfo& s : statements) {
    if (!s.is_select) continue;
    auto base = monitored_->WhatIfPlan(s.text, {});
    if (!base.ok()) continue;
    workload.push_back({&s, base->summary.TotalCost()});
  }
  if (workload.empty()) return Status::OK();

  std::vector<IndexInfo> chosen;
  std::vector<double> chosen_benefit;
  std::set<int64_t> chosen_ids;

  while (chosen.size() < config_.max_indexes) {
    double best_gain = 0;
    int best_candidate = -1;
    std::vector<double> best_costs;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (chosen_ids.count(candidates[c].id)) continue;
      std::vector<IndexInfo> trial = chosen;
      trial.push_back(candidates[c]);
      double gain = 0;
      std::vector<double> costs(workload.size());
      for (size_t w = 0; w < workload.size(); ++w) {
        costs[w] = workload[w].cost;
        auto what_if = monitored_->WhatIfPlan(workload[w].stmt->text, trial);
        if (!what_if.ok()) continue;
        double cost = what_if->summary.TotalCost();
        costs[w] = std::min(costs[w], cost);
        gain += static_cast<double>(workload[w].stmt->frequency) *
                std::max(0.0, workload[w].cost - cost);
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_candidate = static_cast<int>(c);
        best_costs = std::move(costs);
      }
    }
    if (best_candidate < 0 || best_gain < config_.min_index_benefit) break;
    chosen.push_back(candidates[best_candidate]);
    chosen_benefit.push_back(best_gain);
    chosen_ids.insert(candidates[best_candidate].id);
    for (size_t w = 0; w < workload.size(); ++w) {
      workload[w].cost = best_costs[w];
    }
  }

  for (size_t i = 0; i < chosen.size(); ++i) {
    const IndexInfo& vi = chosen[i];
    auto table = monitored_->catalog()->GetTableById(vi.table_id);
    if (!table.ok()) continue;
    Recommendation rec;
    rec.kind = RecommendationKind::kCreateIndex;
    rec.rule = "R4";
    rec.table = table->name;
    // Evidence: the SELECT templates on this table the what-if search
    // optimized for — the statements that explain the index's existence.
    for (const StatementInfo& s : statements) {
      if (!s.is_select) continue;
      if (std::find(s.ref_tables.begin(), s.ref_tables.end(), vi.table_id) ==
          s.ref_tables.end()) {
        continue;
      }
      rec.evidence.push_back({s.fingerprint, s.executions, s.total_actual,
                              s.total_estimated});
    }
    rec.supporting_statements = static_cast<int64_t>(rec.evidence.size());
    std::string cols;
    for (int c : vi.key_columns) {
      if (!cols.empty()) cols += ", ";
      cols += table->columns[c].name;
      rec.columns.push_back(table->columns[c].name);
    }
    std::string index_name = "idx_" + table->name;
    for (int c : vi.key_columns) index_name += "_" + table->columns[c].name;
    rec.index_name = index_name;
    rec.sql = "CREATE INDEX " + index_name + " ON " + table->name + " (" +
              cols + ")";
    rec.inverse_sql = "DROP INDEX " + index_name;
    rec.reason = "the optimizer chooses this (virtual) index for the "
                 "recorded workload";
    rec.estimated_benefit = chosen_benefit[i];
    // Size estimate: entries * (key bytes + TID) / page.
    double entry_bytes = 16.0 * static_cast<double>(vi.key_columns.size()) +
                         16.0;
    rec.estimated_pages = std::max(
        1.0, static_cast<double>(table->row_count) * entry_bytes / 8192.0);
    report->recommendations.push_back(std::move(rec));
  }

  // Fig. 6 cost diagram uses the final chosen set.
  IMON_RETURN_IF_ERROR(BuildCostDiagram(statements, chosen, report));
  return Status::OK();
}

Status Analyzer::BuildCostDiagram(
    const std::vector<StatementInfo>& statements,
    const std::vector<IndexInfo>& chosen, AnalysisReport* report) {
  std::vector<const StatementInfo*> selects;
  for (const StatementInfo& s : statements) {
    if (s.is_select && s.executions > 0) selects.push_back(&s);
  }
  std::sort(selects.begin(), selects.end(),
            [](const StatementInfo* a, const StatementInfo* b) {
              if (a->total_actual != b->total_actual) {
                return a->total_actual > b->total_actual;
              }
              // Cost ties: fall back to workload order so the diagram is
              // deterministic.
              if (a->first_seen_micros != b->first_seen_micros) {
                return a->first_seen_micros < b->first_seen_micros;
              }
              return a->fingerprint < b->fingerprint;
            });
  if (static_cast<int>(selects.size()) > config_.top_statements) {
    selects.resize(config_.top_statements);
  }
  for (const StatementInfo* s : selects) {
    StatementCostReport row;
    row.hash = s->hash;
    row.text = s->text;
    row.frequency = s->frequency;
    row.actual_cost = s->total_actual / s->executions;
    row.estimated_cost = s->total_estimated / s->executions;
    row.virtual_estimated_cost = row.estimated_cost;
    auto what_if = monitored_->WhatIfPlan(s->text, chosen);
    if (what_if.ok()) {
      row.virtual_estimated_cost = what_if->summary.TotalCost();
    }
    report->cost_diagram.push_back(std::move(row));
  }
  return Status::OK();
}

Status Analyzer::BuildLocksDiagram(AnalysisReport* report) {
  IMON_ASSIGN_OR_RETURN(auto statistics, Fetch("statistics"));
  auto& [rows, cols] = statistics;
  int time_col = cols.at("time_micros");
  int locks_col = cols.at("locks_held");
  int waits_col = cols.at("lock_waits");
  int dead_col = cols.at("deadlocks");
  std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    return a[time_col].AsInt() < b[time_col].AsInt();
  });
  int64_t prev_waits = 0;
  int64_t prev_dead = 0;
  bool first = true;
  for (const Row& row : rows) {
    LockReportPoint point;
    point.time_micros = row[time_col].AsInt();
    point.locks_held = row[locks_col].AsInt();
    int64_t waits = row[waits_col].AsInt();
    int64_t dead = row[dead_col].AsInt();
    point.lock_waits_delta = first ? 0 : std::max<int64_t>(0, waits -
                                                                  prev_waits);
    point.deadlocks_delta = first ? 0 : std::max<int64_t>(0, dead - prev_dead);
    prev_waits = waits;
    prev_dead = dead;
    first = false;
    report->locks_diagram.push_back(point);
  }
  return Status::OK();
}

Result<AnalysisReport> Analyzer::Analyze() {
  int64_t start = MonotonicNanos();
  AnalysisReport report;
  IMON_ASSIGN_OR_RETURN(std::vector<StatementInfo> statements,
                        LoadStatements());
  report.statements_analyzed = static_cast<int64_t>(statements.size());
  IMON_RETURN_IF_ERROR(RuleCostMismatch(statements, &report));
  IMON_RETURN_IF_ERROR(RuleMissingHistograms(&report));
  IMON_RETURN_IF_ERROR(RuleOverflowPages(&report));
  IMON_RETURN_IF_ERROR(RuleUnusedIndexes(&report));
  // Cost-based what-if needs statistics to judge candidate indexes, so
  // the statistics recommendations are carried out on the engine before
  // index selection ("test possible new indexes on the DBMS", §V-B) —
  // the same runstats-first discipline as the DB2 design advisor.
  for (const Recommendation& rec : report.recommendations) {
    if (rec.kind == RecommendationKind::kCollectStatistics) {
      monitored_->Execute(rec.sql, MonitoredSession()).ok();
    }
  }
  IMON_RETURN_IF_ERROR(RuleIndexSelection(statements, &report));
  IMON_RETURN_IF_ERROR(BuildLocksDiagram(&report));
  IMON_RETURN_IF_ERROR(BuildTrends(&report));
  report.analysis_micros = (MonotonicNanos() - start) / 1000;

  // Stamp every emitted recommendation with a unique decision id. Mixing
  // a process-wide counter with the wall clock keeps ids unique across
  // analyzer instances, restarts and SimulatedClock tests; masking keeps
  // them positive (SQL-friendly).
  static std::atomic<uint64_t> decision_counter{0};
  for (Recommendation& rec : report.recommendations) {
    uint64_t raw = Mix64(HashCombine(
        static_cast<uint64_t>(monitored_->clock()->NowMicros()),
        decision_counter.fetch_add(1, std::memory_order_relaxed) + 1));
    rec.decision_id = static_cast<int64_t>(raw & 0x7fffffffffffffffULL);
    if (rec.decision_id == 0) rec.decision_id = 1;
  }

  // Self-observability: how often each rule fires, in the monitored
  // engine's registry (imp_metrics `analyzer.*`).
  metrics::MetricsRegistry* registry = monitored_->metrics();
  registry->GetCounter("analyzer.runs")->Add();
  auto kind_slug = [](RecommendationKind kind) {
    switch (kind) {
      case RecommendationKind::kCollectStatistics:
        return "collect_statistics";
      case RecommendationKind::kModifyToBtree:
        return "modify_to_btree";
      case RecommendationKind::kCreateIndex:
        return "create_index";
      case RecommendationKind::kDropIndex:
        return "drop_index";
    }
    return "unknown";
  };
  for (const Recommendation& rec : report.recommendations) {
    registry
        ->GetCounter(std::string("analyzer.rule.") + kind_slug(rec.kind))
        ->Add();
  }
  return report;
}

Result<int64_t> Analyzer::Apply(
    const std::vector<Recommendation>& recommendations) {
  int64_t applied = 0;
  // Restructures first, then indexes, then statistics — so histograms and
  // index backfills see the final storage structure.
  auto rank = [](const Recommendation& r) {
    switch (r.kind) {
      case RecommendationKind::kModifyToBtree:
        return 0;
      case RecommendationKind::kCreateIndex:
        return 1;
      case RecommendationKind::kCollectStatistics:
        return 2;
      case RecommendationKind::kDropIndex:
        return 3;  // drops last: they free space, never enable others
    }
    return 4;
  };
  std::vector<const Recommendation*> ordered;
  for (const auto& r : recommendations) ordered.push_back(&r);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const Recommendation* a, const Recommendation* b) {
                     return rank(*a) < rank(*b);
                   });
  for (const Recommendation* rec : ordered) {
    auto r = monitored_->Execute(rec->sql, MonitoredSession());
    if (r.ok()) ++applied;
  }
  return applied;
}

}  // namespace imon::analyzer
