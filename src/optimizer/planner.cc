#include "optimizer/planner.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace imon::optimizer {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;

namespace {

/// Rows assumed to fit on one data page when statistics are missing.
constexpr double kRowsPerPageGuess = 60.0;
/// Index entries per leaf page.
constexpr double kIndexEntriesPerPage = 150.0;

bool IsColumnOf(const Expr& e, int table_idx) {
  return e.kind == ExprKind::kColumnRef && e.bound_table == table_idx;
}

/// col <op> literal on `table_idx` (either orientation). Returns the
/// oriented op and pieces.
bool MatchColOpLiteral(const Expr& e, int table_idx, const Expr** col,
                       BinaryOp* op, const Value** lit) {
  if (e.kind != ExprKind::kBinary) return false;
  switch (e.binary_op) {
    case BinaryOp::kEq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return false;
  }
  const Expr* l = e.lhs.get();
  const Expr* r = e.rhs.get();
  if (IsColumnOf(*l, table_idx) && r->kind == ExprKind::kLiteral) {
    *col = l;
    *op = e.binary_op;
    *lit = &r->literal;
    return true;
  }
  if (IsColumnOf(*r, table_idx) && l->kind == ExprKind::kLiteral) {
    *col = r;
    *lit = &l->literal;
    switch (e.binary_op) {
      case BinaryOp::kLt:
        *op = BinaryOp::kGt;
        break;
      case BinaryOp::kLe:
        *op = BinaryOp::kGe;
        break;
      case BinaryOp::kGt:
        *op = BinaryOp::kLt;
        break;
      case BinaryOp::kGe:
        *op = BinaryOp::kLe;
        break;
      default:
        *op = e.binary_op;
        break;
    }
    return true;
  }
  return false;
}

int Popcount(uint64_t v) { return __builtin_popcountll(v); }

/// Parallel lanes a scan over `est_units` morsel units can keep busy:
/// min(workers, ceil(units / morsel_pages)), at least 1.
double EffectiveLanes(size_t workers, size_t morsel_pages, double est_units) {
  if (workers <= 1) return 1.0;
  double morsels = std::ceil(std::max(1.0, est_units) /
                             static_cast<double>(
                                 std::max<size_t>(1, morsel_pages)));
  return std::max(1.0,
                  std::min(static_cast<double>(workers), morsels));
}

}  // namespace

std::vector<catalog::IndexInfo> Planner::CandidateIndexes(
    const catalog::TableInfo& table) const {
  std::vector<catalog::IndexInfo> out = catalog_->IndexesOnTable(table.id);
  for (const auto& vi : options_.virtual_indexes) {
    if (vi.table_id == table.id) out.push_back(vi);
  }
  return out;
}

std::map<int, Planner::ColumnConstraint> Planner::ExtractConstraints(
    int table_idx, const std::vector<BoundTable>& tables,
    const std::vector<const Expr*>& conjuncts,
    const CardinalityEstimator& est) const {
  std::map<int, ColumnConstraint> out;
  uint64_t table_mask = 1ULL << table_idx;
  for (const Expr* c : conjuncts) {
    if (Binder::TablesUsed(*c) != table_mask) continue;
    const Expr* col = nullptr;
    BinaryOp op;
    const Value* lit = nullptr;
    if (MatchColOpLiteral(*c, table_idx, &col, &op, &lit)) {
      TypeId col_type =
          tables[table_idx].info.columns[col->bound_column].type;
      auto cast = lit->CastTo(col_type);
      if (!cast.ok()) continue;
      ColumnConstraint& cc = out[col->bound_column];
      double sel = est.ConjunctSelectivity(*c);
      switch (op) {
        case BinaryOp::kEq:
          cc.eq = cast.value();
          break;
        case BinaryOp::kLt:
          cc.upper = KeyBound{cast.value(), false};
          break;
        case BinaryOp::kLe:
          cc.upper = KeyBound{cast.value(), true};
          break;
        case BinaryOp::kGt:
          cc.lower = KeyBound{cast.value(), false};
          break;
        case BinaryOp::kGe:
          cc.lower = KeyBound{cast.value(), true};
          break;
        default:
          continue;
      }
      cc.selectivity *= sel;
      continue;
    }
    if (c->kind == ExprKind::kBetween && !c->negated &&
        IsColumnOf(*c->lhs, table_idx) &&
        c->low->kind == ExprKind::kLiteral &&
        c->high->kind == ExprKind::kLiteral) {
      TypeId col_type =
          tables[table_idx].info.columns[c->lhs->bound_column].type;
      auto lo = c->low->literal.CastTo(col_type);
      auto hi = c->high->literal.CastTo(col_type);
      if (!lo.ok() || !hi.ok()) continue;
      ColumnConstraint& cc = out[c->lhs->bound_column];
      cc.lower = KeyBound{lo.value(), true};
      cc.upper = KeyBound{hi.value(), true};
      cc.selectivity *= est.ConjunctSelectivity(*c);
    }
  }
  return out;
}

double Planner::TablePages(const BoundTable& table, double rows) const {
  if (table.is_virtual) return std::max(1.0, rows / kRowsPerPageGuess);
  double pages = static_cast<double>(table.info.TotalPages());
  if (pages <= 0) pages = std::max(1.0, rows / kRowsPerPageGuess);
  return pages;
}

std::unique_ptr<PlanNode> Planner::BestScan(
    int table_idx, const std::vector<BoundTable>& tables,
    const std::vector<const Expr*>& conjuncts,
    const CardinalityEstimator& est) const {
  const BoundTable& bt = tables[table_idx];
  const CostModel& cm = options_.cost;

  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNodeKind::kScan;
  node->table_idx = table_idx;
  node->table_mask = 1ULL << table_idx;
  node->layout = OutputLayout::ForTable(
      table_idx, static_cast<int>(tables.size()),
      static_cast<int>(bt.info.columns.size()));

  uint64_t table_mask = 1ULL << table_idx;
  int num_filters = 0;
  for (const Expr* c : conjuncts) {
    if (Binder::TablesUsed(*c) == table_mask) {
      node->filters.push_back(c);
      ++num_filters;
    }
  }

  double rows = est.TableRows(table_idx);
  double filter_sel = est.FilterSelectivity(table_idx, conjuncts);
  double out_rows = std::max(filter_sel * rows, 1e-3);
  double pages = TablePages(bt, rows);

  // Baseline: sequential scan. Full sweeps split every structure's unit
  // chain into morsels, so the CPU term divides by the effective lanes.
  double seq_lanes =
      bt.is_virtual ? 1.0
                    : EffectiveLanes(options_.exec_workers,
                                     options_.exec_morsel_pages, pages);
  node->access.kind = AccessPathKind::kSeqScan;
  node->est_rows = out_rows;
  node->est_lanes = seq_lanes;
  node->est_cost_io = bt.is_virtual ? 0.0 : pages * cm.seq_page_cost;
  node->est_cost_cpu =
      (rows * cm.cpu_tuple_cost + rows * num_filters * cm.cpu_operator_cost) /
      seq_lanes;
  double best_cost = node->est_cost_io + node->est_cost_cpu;

  if (bt.is_virtual) return node;

  auto constraints = ExtractConstraints(table_idx, tables, conjuncts, est);
  if (constraints.empty()) return node;

  // Helper to evaluate one candidate key-column list against constraints.
  auto try_path = [&](const std::vector<int>& key_cols,
                      AccessPath* path) -> double {
    // Returns the path selectivity, or -1 when unusable.
    double sel = 1.0;
    path->eq_prefix_len = 0;
    path->eq_values.clear();
    path->lower.reset();
    path->upper.reset();
    size_t i = 0;
    for (; i < key_cols.size(); ++i) {
      auto it = constraints.find(key_cols[i]);
      if (it == constraints.end() || !it->second.eq.has_value()) break;
      path->eq_values.push_back(*it->second.eq);
      ++path->eq_prefix_len;
      sel *= it->second.selectivity;
    }
    if (i < key_cols.size()) {
      auto it = constraints.find(key_cols[i]);
      if (it != constraints.end() &&
          (it->second.lower.has_value() || it->second.upper.has_value())) {
        path->lower = it->second.lower;
        path->upper = it->second.upper;
        sel *= it->second.selectivity;
        return sel;
      }
    }
    if (path->eq_prefix_len == 0) return -1.0;
    return sel;
  };

  // Primary B-Tree structure.
  if (bt.info.structure == catalog::StorageStructure::kBtree &&
      !bt.info.primary_key.empty()) {
    AccessPath path;
    path.kind = AccessPathKind::kPrimaryBtree;
    double sel = try_path(bt.info.primary_key, &path);
    // Equality on the full (unique) primary key matches exactly one row.
    if (sel > 0 &&
        path.eq_prefix_len == static_cast<int>(bt.info.primary_key.size())) {
      sel = std::min(sel, 1.0 / rows);
    }
    if (sel > 0) {
      double matching = std::max(1.0, rows * sel);
      // Range scans split at leaf boundaries; the matching leaf count
      // bounds the morsels.
      double lanes = EffectiveLanes(options_.exec_workers,
                                    options_.exec_morsel_pages,
                                    std::ceil(matching / kRowsPerPageGuess));
      double io = cm.btree_descent_pages * cm.random_page_cost +
                  std::ceil(matching / kRowsPerPageGuess) * cm.seq_page_cost;
      double cpu = (matching * cm.cpu_tuple_cost +
                    matching * num_filters * cm.cpu_operator_cost) /
                   lanes;
      if (io + cpu < best_cost) {
        best_cost = io + cpu;
        node->access = path;
        node->est_cost_io = io;
        node->est_cost_cpu = cpu;
        node->est_lanes = lanes;
        node->est_rows = std::min(node->est_rows, matching);
      }
    }
  }

  // ISAM primary structure: the static directory routes eq/range
  // predicates on the key prefix to a subset of the chains.
  if (bt.info.structure == catalog::StorageStructure::kIsam) {
    std::vector<int> key_cols = bt.info.primary_key;
    if (key_cols.empty()) {
      for (const auto& c : bt.info.columns) key_cols.push_back(c.ordinal);
    }
    AccessPath path;
    path.kind = AccessPathKind::kPrimaryIsam;
    double sel = try_path(key_cols, &path);
    if (sel > 0 &&
        !bt.info.primary_key.empty() &&
        path.eq_prefix_len == static_cast<int>(key_cols.size())) {
      sel = std::min(sel, 1.0 / rows);
    }
    if (sel > 0) {
      double matching = std::max(1.0, rows * sel);
      // Routed chains split per directory slot; the routed page fraction
      // bounds the morsels.
      double lanes = EffectiveLanes(options_.exec_workers,
                                    options_.exec_morsel_pages,
                                    std::max(1.0, pages * sel));
      // Pages touched: the routed fraction of the file (chains included).
      double io = std::max(2.0, pages * sel) * cm.seq_page_cost;
      double cpu = (matching * cm.cpu_tuple_cost +
                    matching * num_filters * cm.cpu_operator_cost) /
                   lanes;
      if (io + cpu < best_cost) {
        best_cost = io + cpu;
        node->access = path;
        node->est_cost_io = io;
        node->est_cost_cpu = cpu;
        node->est_lanes = lanes;
        node->est_rows = std::min(node->est_rows, matching);
      }
    }
  }

  // HASH primary structure: full-key equality probe into one bucket
  // chain.
  if (bt.info.structure == catalog::StorageStructure::kHash) {
    std::vector<int> key_cols = bt.info.primary_key;
    if (key_cols.empty()) {
      for (const auto& c : bt.info.columns) key_cols.push_back(c.ordinal);
    }
    AccessPath path;
    path.kind = AccessPathKind::kPrimaryHash;
    double sel = 1.0;
    bool full_key = true;
    for (int col : key_cols) {
      auto it = constraints.find(col);
      if (it == constraints.end() || !it->second.eq.has_value()) {
        full_key = false;
        break;
      }
      path.eq_values.push_back(*it->second.eq);
      ++path.eq_prefix_len;
      sel *= it->second.selectivity;
    }
    if (full_key) {
      if (!bt.info.primary_key.empty()) sel = std::min(sel, 1.0 / rows);
      double matching = std::max(1.0, rows * sel);
      double buckets = std::max<double>(1.0, bt.info.main_page_target);
      double chain_pages = std::max(1.0, pages / buckets);
      double io = chain_pages * cm.random_page_cost;
      // One bucket unit: a single morsel, so one lane.
      double cpu = matching * cm.cpu_tuple_cost +
                   matching * num_filters * cm.cpu_operator_cost;
      if (io + cpu < best_cost) {
        best_cost = io + cpu;
        node->access = path;
        node->est_cost_io = io;
        node->est_cost_cpu = cpu;
        node->est_lanes = 1.0;
        node->est_rows = std::min(node->est_rows, matching);
      }
    }
  }

  // Secondary indexes (real and virtual).
  for (const catalog::IndexInfo& idx : CandidateIndexes(bt.info)) {
    AccessPath path;
    path.kind = AccessPathKind::kSecondaryIndex;
    path.index = idx;
    double sel = try_path(idx.key_columns, &path);
    if (sel <= 0) continue;
    if (idx.unique &&
        path.eq_prefix_len == static_cast<int>(idx.key_columns.size())) {
      sel = std::min(sel, 1.0 / rows);  // unique: at most one match
    }
    double matching = std::max(1.0, rows * sel);
    // Index-leaf morsels parallelize entry decoding and base fetches.
    double lanes =
        EffectiveLanes(options_.exec_workers, options_.exec_morsel_pages,
                       std::ceil(matching / kIndexEntriesPerPage));
    double io =
        cm.btree_descent_pages * cm.random_page_cost +
        std::ceil(matching / kIndexEntriesPerPage) * cm.seq_page_cost +
        matching * cm.random_page_cost;  // unclustered base fetches
    double cpu = (matching * cm.cpu_index_tuple_cost +
                  matching * cm.cpu_tuple_cost +
                  matching * num_filters * cm.cpu_operator_cost) /
                 lanes;
    if (io + cpu < best_cost) {
      best_cost = io + cpu;
      node->access = path;
      node->est_cost_io = io;
      node->est_cost_cpu = cpu;
      node->est_lanes = lanes;
      node->est_rows = std::min(node->est_rows, matching);
    }
  }

  return node;
}

Result<std::unique_ptr<PlanNode>> Planner::PlanSingleTable(
    const BoundTable& table, const std::vector<const Expr*>& conjuncts) {
  std::vector<BoundTable> tables = {table};
  CardinalityEstimator est(catalog_, &tables);
  return BestScan(0, tables, conjuncts, est);
}

Result<std::unique_ptr<PlanNode>> Planner::PlanJoinTree(
    const BoundSelect& bound) {
  const auto& tables = bound.tables;
  const auto& conjuncts = bound.conjuncts;
  const CostModel& cm = options_.cost;
  CardinalityEstimator est(catalog_, &tables);
  const int n = static_cast<int>(tables.size());

  std::vector<std::unique_ptr<PlanNode>> best(1ULL << n);
  for (int t = 0; t < n; ++t) {
    best[1ULL << t] = BestScan(t, tables, conjuncts, est);
  }
  if (n == 1) return std::move(best[1]);

  // Conjuncts eligible as join predicates for a (left, right) split.
  auto applicable = [&](uint64_t mask, uint64_t left_mask,
                        uint64_t right_mask) {
    std::vector<const Expr*> out;
    for (const Expr* c : conjuncts) {
      uint64_t used = Binder::TablesUsed(*c);
      if (used == 0) continue;
      if ((used & ~mask) != 0) continue;
      if ((used & left_mask) == 0 || (used & right_mask) == 0) continue;
      out.push_back(c);
    }
    return out;
  };

  // Build the best join of `outer` and `inner` (in that role order).
  auto make_join =
      [&](const PlanNode* outer, const PlanNode* inner,
          const std::vector<const Expr*>& preds) -> std::unique_ptr<PlanNode> {
    // Split predicates into equi keys (outer col(s) = inner col(s)) and
    // residual.
    std::vector<std::pair<const Expr*, const Expr*>> equi;
    std::vector<const Expr*> residual;
    double join_sel = 1.0;
    for (const Expr* c : preds) {
      join_sel *= est.ConjunctSelectivity(*c);
      if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq &&
          c->lhs->kind == ExprKind::kColumnRef &&
          c->rhs->kind == ExprKind::kColumnRef) {
        uint64_t l = Binder::TablesUsed(*c->lhs);
        uint64_t r = Binder::TablesUsed(*c->rhs);
        if ((l & outer->table_mask) == l && (r & inner->table_mask) == r) {
          equi.emplace_back(c->lhs.get(), c->rhs.get());
          continue;
        }
        if ((r & outer->table_mask) == r && (l & inner->table_mask) == l) {
          equi.emplace_back(c->rhs.get(), c->lhs.get());
          continue;
        }
      }
      residual.push_back(c);
    }
    join_sel = std::clamp(join_sel, 1e-12, 1.0);
    double out_rows =
        std::max(outer->est_rows * inner->est_rows * join_sel, 1e-3);
    if (preds.empty()) {
      // Cartesian products are allowed but heavily penalized by their own
      // row blow-up; no extra fudge needed.
    }

    auto node = std::make_unique<PlanNode>();
    node->left = nullptr;   // filled by caller via clone; see below
    node->table_mask = outer->table_mask | inner->table_mask;
    node->est_rows = out_rows;
    node->layout = OutputLayout::Concat(outer->layout, inner->layout);
    node->equi_keys = equi;
    node->residual = residual;

    double base_io = outer->est_cost_io + inner->est_cost_io;
    double base_cpu = outer->est_cost_cpu + inner->est_cost_cpu;

    // Candidate 1: hash join (needs at least one equi key). The build
    // side partitions into fixed 1024-row chunks executed on the worker
    // pool, so the hash-entry term divides by the build lanes.
    double hash_cost_total = std::numeric_limits<double>::infinity();
    double hash_build_lanes = 1.0;
    if (!equi.empty()) {
      if (options_.exec_workers > 1) {
        hash_build_lanes = std::max(
            1.0, std::min(static_cast<double>(options_.exec_workers),
                          std::ceil(inner->est_rows / 1024.0)));
      }
      double cpu = base_cpu +
                   inner->est_rows * cm.hash_entry_cost / hash_build_lanes +
                   outer->est_rows * cm.cpu_tuple_cost +
                   out_rows * cm.cpu_tuple_cost +
                   out_rows * residual.size() * cm.cpu_operator_cost;
      hash_cost_total = base_io + cpu;
    }

    // Candidate 2: index nested-loop — inner must be a plain scan leaf
    // whose table has an index covering the inner equi columns' prefix.
    double inl_cost_total = std::numeric_limits<double>::infinity();
    AccessPath inl_access;
    std::vector<const Expr*> inl_probe;
    if (inner->kind == PlanNodeKind::kScan && !equi.empty() &&
        !tables[inner->table_idx].is_virtual) {
      const catalog::TableInfo& itable = tables[inner->table_idx].info;
      // Map: inner column ordinal -> outer probe expr.
      std::map<int, const Expr*> inner_eq;
      for (auto& [outer_e, inner_e] : equi) {
        inner_eq[inner_e->bound_column] = outer_e;
      }
      auto consider = [&](const std::vector<int>& key_cols,
                          AccessPathKind kind,
                          const catalog::IndexInfo* idx) {
        int prefix = 0;
        std::vector<const Expr*> probes;
        for (int col : key_cols) {
          auto it = inner_eq.find(col);
          if (it == inner_eq.end()) break;
          probes.push_back(it->second);
          ++prefix;
        }
        if (prefix == 0) return;
        double per_probe_rows = std::max(
            1.0, inner->est_rows /
                     std::max(1.0, est.DistinctValues(inner->table_idx,
                                                      key_cols[0])));
        // Repeated probes keep the upper B-Tree levels resident, so the
        // per-probe descent costs warm sequential-page units.
        double probe_io =
            cm.warm_descent_pages * cm.seq_page_cost +
            (kind == AccessPathKind::kSecondaryIndex
                 ? per_probe_rows * cm.random_page_cost
                 : std::ceil(per_probe_rows / kRowsPerPageGuess) *
                       cm.seq_page_cost);
        double io = outer->est_cost_io + outer->est_rows * probe_io;
        double cpu = outer->est_cost_cpu +
                     outer->est_rows * per_probe_rows * cm.cpu_tuple_cost +
                     out_rows * cm.cpu_tuple_cost;
        if (io + cpu < inl_cost_total) {
          inl_cost_total = io + cpu;
          inl_access.kind = kind;
          if (idx != nullptr) inl_access.index = *idx;
          inl_access.eq_prefix_len = prefix;
          inl_access.eq_values.clear();
          inl_access.lower.reset();
          inl_access.upper.reset();
          inl_probe = probes;
        }
      };
      if (itable.structure == catalog::StorageStructure::kBtree &&
          !itable.primary_key.empty()) {
        consider(itable.primary_key, AccessPathKind::kPrimaryBtree, nullptr);
      }
      for (const catalog::IndexInfo& idx : CandidateIndexes(itable)) {
        consider(idx.key_columns, AccessPathKind::kSecondaryIndex, &idx);
      }
    }

    // Candidate 3: nested loop (inner materialized once).
    double nl_cpu = base_cpu +
                    outer->est_rows * inner->est_rows *
                        (static_cast<double>(preds.size()) + 1.0) *
                        cm.cpu_operator_cost +
                    out_rows * cm.cpu_tuple_cost;
    double nl_cost_total = base_io + nl_cpu;

    double best_total = std::min({hash_cost_total, inl_cost_total,
                                  nl_cost_total});
    if (best_total == hash_cost_total) {
      node->kind = PlanNodeKind::kHashJoin;
      node->est_cost_io = base_io;
      node->est_cost_cpu = best_total - base_io;
      node->est_lanes = hash_build_lanes;
    } else if (best_total == inl_cost_total) {
      node->kind = PlanNodeKind::kIndexNLJoin;
      node->inner_access = inl_access;
      node->probe_exprs = inl_probe;
      // io/cpu split approximated: descent+fetch pages are io.
      node->est_cost_io = outer->est_cost_io +
                          outer->est_rows * cm.warm_descent_pages *
                              cm.seq_page_cost;
      node->est_cost_cpu = best_total - node->est_cost_io;
    } else {
      node->kind = PlanNodeKind::kNestedLoopJoin;
      node->est_cost_io = base_io;
      node->est_cost_cpu = nl_cpu;
    }
    return node;
  };

  // Deep-copy a plan subtree (DP table keeps ownership of its entries).
  std::function<std::unique_ptr<PlanNode>(const PlanNode&)> clone =
      [&](const PlanNode& src) {
        auto out = std::make_unique<PlanNode>();
        out->kind = src.kind;
        out->table_idx = src.table_idx;
        out->access = src.access;
        out->filters = src.filters;
        if (src.left) out->left = clone(*src.left);
        if (src.right) out->right = clone(*src.right);
        out->equi_keys = src.equi_keys;
        out->residual = src.residual;
        out->inner_access = src.inner_access;
        out->probe_exprs = src.probe_exprs;
        out->est_rows = src.est_rows;
        out->est_cost_io = src.est_cost_io;
        out->est_cost_cpu = src.est_cost_cpu;
        out->est_lanes = src.est_lanes;
        out->layout = src.layout;
        out->table_mask = src.table_mask;
        return out;
      };

  const uint64_t full = (1ULL << n) - 1;
  for (uint64_t mask = 1; mask <= full; ++mask) {
    if (Popcount(mask) < 2) continue;
    std::unique_ptr<PlanNode> best_plan;
    double best_cost = std::numeric_limits<double>::infinity();
    // Enumerate proper sub-splits; fix the lowest bit to the left side to
    // halve the enumeration, but consider both role orders.
    uint64_t lowest = mask & (~mask + 1);
    for (uint64_t sub = (mask - 1) & mask; sub != 0;
         sub = (sub - 1) & mask) {
      if ((sub & lowest) == 0) continue;
      uint64_t other = mask ^ sub;
      if (best[sub] == nullptr || best[other] == nullptr) continue;
      auto preds = applicable(mask, sub, other);
      for (int order = 0; order < 2; ++order) {
        const PlanNode* outer = order == 0 ? best[sub].get()
                                           : best[other].get();
        const PlanNode* inner = order == 0 ? best[other].get()
                                           : best[sub].get();
        auto candidate = make_join(outer, inner, preds);
        double total = candidate->est_cost_io + candidate->est_cost_cpu;
        if (total < best_cost) {
          candidate->left = clone(*outer);
          candidate->right = clone(*inner);
          best_cost = total;
          best_plan = std::move(candidate);
        }
      }
    }
    if (best_plan == nullptr) {
      return Status::Internal("join enumeration produced no plan for mask " +
                              std::to_string(mask));
    }
    best[mask] = std::move(best_plan);
  }
  return std::move(best[full]);
}

PlanSummary Planner::Summarize(const PlanNode& root,
                               const BoundSelect& bound) const {
  PlanSummary out;
  out.est_rows = root.est_rows;
  out.est_cost_io = root.est_cost_io;
  out.est_cost_cpu = root.est_cost_cpu;
  out.est_lanes = root.est_lanes;

  const CostModel& cm = options_.cost;
  // Aggregation / sort / distinct surcharges.
  if (bound.has_aggregates) {
    out.est_cost_cpu += root.est_rows *
                        (1.0 + static_cast<double>(bound.aggregates.size())) *
                        cm.cpu_operator_cost;
  }
  if (!bound.stmt->order_by.empty()) {
    double rows = std::max(root.est_rows, 2.0);
    out.est_cost_cpu += rows * std::log2(rows) * cm.cpu_operator_cost * 2.0;
  }
  if (bound.stmt->distinct) {
    out.est_cost_cpu += root.est_rows * cm.hash_entry_cost;
  }

  // Collect used indexes.
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    if (node.kind == PlanNodeKind::kScan &&
        node.access.kind == AccessPathKind::kSecondaryIndex) {
      out.used_indexes.push_back(node.access.index.id);
    }
    if (node.kind == PlanNodeKind::kIndexNLJoin &&
        node.inner_access.kind == AccessPathKind::kSecondaryIndex) {
      out.used_indexes.push_back(node.inner_access.index.id);
    }
    if (node.left) walk(*node.left);
    if (node.right) walk(*node.right);
  };
  walk(root);
  std::sort(out.used_indexes.begin(), out.used_indexes.end());
  out.used_indexes.erase(
      std::unique(out.used_indexes.begin(), out.used_indexes.end()),
      out.used_indexes.end());
  out.plan_text = root.ToString();
  return out;
}

}  // namespace imon::optimizer
