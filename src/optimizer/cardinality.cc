#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

namespace imon::optimizer {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;

namespace {

BinaryOp FlipOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

}  // namespace

bool MatchColOpLiteral(const Expr& e, ColOpLiteral* out) {
  if (e.kind != ExprKind::kBinary) return false;
  switch (e.binary_op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
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
  if (l->kind == ExprKind::kColumnRef && r->kind == ExprKind::kLiteral) {
    *out = {l, e.binary_op, &r->literal};
    return true;
  }
  if (r->kind == ExprKind::kColumnRef && l->kind == ExprKind::kLiteral) {
    *out = {r, FlipOp(e.binary_op), &l->literal};
    return true;
  }
  return false;
}

const catalog::Histogram* CardinalityEstimator::HistogramFor(
    int table_idx, int ordinal) const {
  if (table_idx < 0 || table_idx >= static_cast<int>(tables_->size()))
    return nullptr;
  const BoundTable& bt = (*tables_)[table_idx];
  if (bt.is_virtual) return nullptr;
  auto key = std::make_pair(table_idx, ordinal);
  auto it = stats_cache_.find(key);
  if (it == stats_cache_.end()) {
    it = stats_cache_
             .emplace(key, catalog_->GetColumnStats(bt.info.id, ordinal))
             .first;
  }
  return it->second.has_histogram ? &it->second.histogram : nullptr;
}

double CardinalityEstimator::TableRows(int table_idx) const {
  const BoundTable& bt = (*tables_)[table_idx];
  if (bt.is_virtual) return kVirtualTableRows;
  return std::max<double>(1.0, static_cast<double>(bt.info.row_count));
}

double CardinalityEstimator::DistinctValues(int table_idx,
                                            int ordinal) const {
  const catalog::Histogram* h = HistogramFor(table_idx, ordinal);
  if (h != nullptr && h->distinct_count() > 0) {
    return static_cast<double>(h->distinct_count());
  }
  // Without statistics assume 10% of rows are distinct, at least 10.
  return std::max(10.0, TableRows(table_idx) * 0.1);
}

double CardinalityEstimator::ConjunctSelectivity(const Expr& conjunct) const {
  // BETWEEN on a column.
  if (conjunct.kind == ExprKind::kBetween &&
      conjunct.lhs->kind == ExprKind::kColumnRef &&
      conjunct.low->kind == ExprKind::kLiteral &&
      conjunct.high->kind == ExprKind::kLiteral) {
    const catalog::Histogram* h = HistogramFor(conjunct.lhs->bound_table,
                                               conjunct.lhs->bound_column);
    double sel = kDefaultRangeSelectivity;
    if (h != nullptr) {
      sel = h->RangeSelectivity(conjunct.low->literal, true, true,
                                conjunct.high->literal, true, true);
    }
    return conjunct.negated ? std::clamp(1.0 - sel, 0.001, 1.0)
                            : std::max(sel, 1e-6);
  }

  // IS NULL.
  if (conjunct.kind == ExprKind::kIsNull &&
      conjunct.lhs->kind == ExprKind::kColumnRef) {
    const catalog::Histogram* h =
        HistogramFor(conjunct.lhs->bound_table, conjunct.lhs->bound_column);
    double null_frac = 0.05;
    if (h != nullptr && h->total_rows() > 0) {
      null_frac =
          static_cast<double>(h->null_count()) / h->total_rows();
    }
    return conjunct.negated ? std::clamp(1.0 - null_frac, 0.001, 1.0)
                            : std::max(null_frac, 1e-6);
  }

  if (conjunct.kind == ExprKind::kLike) return kDefaultLikeSelectivity;

  if (conjunct.kind == ExprKind::kInList) {
    // Sum of equality selectivities, capped.
    double total = 0;
    for (const auto& item : conjunct.in_list) {
      if (conjunct.lhs->kind == ExprKind::kColumnRef &&
          item->kind == ExprKind::kLiteral) {
        const catalog::Histogram* h = HistogramFor(
            conjunct.lhs->bound_table, conjunct.lhs->bound_column);
        total += (h != nullptr) ? h->EqualitySelectivity(item->literal)
                                : kDefaultEqSelectivity;
      } else {
        total += kDefaultEqSelectivity;
      }
    }
    total = std::clamp(total, 1e-6, 1.0);
    return conjunct.negated ? std::clamp(1.0 - total, 0.001, 1.0) : total;
  }

  ColOpLiteral col_op_lit;
  if (MatchColOpLiteral(conjunct, &col_op_lit)) {
    const catalog::Histogram* h =
        HistogramFor(col_op_lit.col->bound_table,
                     col_op_lit.col->bound_column);
    switch (col_op_lit.op) {
      case BinaryOp::kEq:
        return std::max(
            h != nullptr ? h->EqualitySelectivity(*col_op_lit.literal)
                         : kDefaultEqSelectivity,
            1e-9);
      case BinaryOp::kNe:
        return std::clamp(
            1.0 - (h != nullptr ? h->EqualitySelectivity(*col_op_lit.literal)
                                : kDefaultEqSelectivity),
            0.001, 1.0);
      case BinaryOp::kLt:
        return h != nullptr
                   ? std::max(h->RangeSelectivity(Value(), false, false,
                                                  *col_op_lit.literal, true,
                                                  false),
                              1e-6)
                   : kDefaultRangeSelectivity;
      case BinaryOp::kLe:
        return h != nullptr
                   ? std::max(h->RangeSelectivity(Value(), false, false,
                                                  *col_op_lit.literal, true,
                                                  true),
                              1e-6)
                   : kDefaultRangeSelectivity;
      case BinaryOp::kGt:
        return h != nullptr
                   ? std::max(h->RangeSelectivity(*col_op_lit.literal, true,
                                                  false, Value(), false,
                                                  false),
                              1e-6)
                   : kDefaultRangeSelectivity;
      case BinaryOp::kGe:
        return h != nullptr
                   ? std::max(h->RangeSelectivity(*col_op_lit.literal, true,
                                                  true, Value(), false,
                                                  false),
                              1e-6)
                   : kDefaultRangeSelectivity;
      default:
        break;
    }
  }

  // col = col on two tables: join selectivity.
  if (conjunct.kind == ExprKind::kBinary &&
      conjunct.binary_op == BinaryOp::kEq &&
      conjunct.lhs->kind == ExprKind::kColumnRef &&
      conjunct.rhs->kind == ExprKind::kColumnRef &&
      conjunct.lhs->bound_table != conjunct.rhs->bound_table) {
    return JoinSelectivity(*conjunct.lhs, *conjunct.rhs);
  }

  // OR trees: 1 - prod(1 - sel_i), approximated over direct disjuncts.
  if (conjunct.kind == ExprKind::kBinary &&
      conjunct.binary_op == BinaryOp::kOr) {
    double keep = (1.0 - ConjunctSelectivity(*conjunct.lhs)) *
                  (1.0 - ConjunctSelectivity(*conjunct.rhs));
    return std::clamp(1.0 - keep, 1e-6, 1.0);
  }

  if (conjunct.kind == ExprKind::kUnary &&
      conjunct.unary_op == sql::UnaryOp::kNot) {
    return std::clamp(1.0 - ConjunctSelectivity(*conjunct.lhs), 0.001, 1.0);
  }

  return kDefaultOtherSelectivity;
}

double CardinalityEstimator::FilterSelectivity(
    int table_idx, const std::vector<const Expr*>& conjuncts) const {
  double sel = 1.0;
  uint64_t mask = 1ULL << table_idx;
  for (const Expr* c : conjuncts) {
    if (Binder::TablesUsed(*c) == mask) {
      sel *= ConjunctSelectivity(*c);
    }
  }
  return std::clamp(sel, 1e-9, 1.0);
}

double CardinalityEstimator::JoinSelectivity(const Expr& left_col,
                                             const Expr& right_col) const {
  double ndv_left = DistinctValues(left_col.bound_table,
                                   left_col.bound_column);
  double ndv_right = DistinctValues(right_col.bound_table,
                                    right_col.bound_column);
  return 1.0 / std::max({ndv_left, ndv_right, 1.0});
}

}  // namespace imon::optimizer
