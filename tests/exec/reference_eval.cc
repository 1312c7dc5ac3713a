// The AST tree-walking evaluator the engine ran before every expression
// was compiled into an ExprProgram. It is kept only as the oracle the
// programs are checked against (expr_differential_test.cc,
// expression_eval_test.cc); nothing in src/ links it.

#include "tests/exec/reference_eval.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "exec/expr_program.h"

namespace imon::exec {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;

namespace {

Value BoolValue(bool b) { return Value::Int(b ? 1 : 0); }

}  // namespace

Result<Value> Eval(const Expr& expr, const optimizer::OutputLayout& layout,
                   const Row& row, const AggregateValues* aggs) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;

    case ExprKind::kColumnRef: {
      int pos = layout.PositionOf(expr.bound_table, expr.bound_column);
      if (pos < 0 || pos >= static_cast<int>(row.size())) {
        return Status::Internal("column " + expr.ToString() +
                                " not present in row layout");
      }
      return row[pos];
    }

    case ExprKind::kBinary: {
      switch (expr.binary_op) {
        case BinaryOp::kAnd: {
          // Kleene logic: false dominates NULL.
          IMON_ASSIGN_OR_RETURN(Value l, Eval(*expr.lhs, layout, row, aggs));
          if (!l.is_null() && l.AsDouble() == 0) return BoolValue(false);
          IMON_ASSIGN_OR_RETURN(Value r, Eval(*expr.rhs, layout, row, aggs));
          if (!r.is_null() && r.AsDouble() == 0) return BoolValue(false);
          if (l.is_null() || r.is_null()) return Value::Null();
          return BoolValue(true);
        }
        case BinaryOp::kOr: {
          IMON_ASSIGN_OR_RETURN(Value l, Eval(*expr.lhs, layout, row, aggs));
          if (!l.is_null() && l.AsDouble() != 0) return BoolValue(true);
          IMON_ASSIGN_OR_RETURN(Value r, Eval(*expr.rhs, layout, row, aggs));
          if (!r.is_null() && r.AsDouble() != 0) return BoolValue(true);
          if (l.is_null() || r.is_null()) return Value::Null();
          return BoolValue(false);
        }
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          IMON_ASSIGN_OR_RETURN(Value l, Eval(*expr.lhs, layout, row, aggs));
          IMON_ASSIGN_OR_RETURN(Value r, Eval(*expr.rhs, layout, row, aggs));
          int cmp = CompareSql(l, r);
          if (cmp == -2) return Value::Null();
          switch (expr.binary_op) {
            case BinaryOp::kEq:
              return BoolValue(cmp == 0);
            case BinaryOp::kNe:
              return BoolValue(cmp != 0);
            case BinaryOp::kLt:
              return BoolValue(cmp < 0);
            case BinaryOp::kLe:
              return BoolValue(cmp <= 0);
            case BinaryOp::kGt:
              return BoolValue(cmp > 0);
            default:
              return BoolValue(cmp >= 0);
          }
        }
        default: {
          IMON_ASSIGN_OR_RETURN(Value l, Eval(*expr.lhs, layout, row, aggs));
          IMON_ASSIGN_OR_RETURN(Value r, Eval(*expr.rhs, layout, row, aggs));
          Value v;
          IMON_RETURN_IF_ERROR(ArithmeticOp(expr.binary_op, l, r, &v));
          return v;
        }
      }
    }

    case ExprKind::kUnary: {
      IMON_ASSIGN_OR_RETURN(Value v, Eval(*expr.lhs, layout, row, aggs));
      if (expr.unary_op == sql::UnaryOp::kNot) {
        if (v.is_null()) return Value::Null();
        return BoolValue(v.AsDouble() == 0);
      }
      if (v.is_null()) return Value::Null();
      if (v.type() == TypeId::kInt) {
        if (v.AsInt() == std::numeric_limits<int64_t>::min()) {
          return Status::InvalidArgument("integer out of range");
        }
        return Value::Int(-v.AsInt());
      }
      if (v.type() == TypeId::kDouble) return Value::Double(-v.AsDouble());
      return Status::InvalidArgument("negation of text value");
    }

    case ExprKind::kFuncCall: {
      if (aggs != nullptr && expr.agg_slot >= 0 &&
          expr.agg_slot < static_cast<int>(aggs->size())) {
        return (*aggs)[expr.agg_slot];
      }
      if (expr.func_name == "abs") {
        IMON_ASSIGN_OR_RETURN(Value v,
                              Eval(*expr.args[0], layout, row, aggs));
        if (v.is_null()) return Value::Null();
        if (v.type() == TypeId::kInt) {
          if (v.AsInt() == std::numeric_limits<int64_t>::min()) {
            return Status::InvalidArgument("integer out of range");
          }
          return Value::Int(std::abs(v.AsInt()));
        }
        if (v.type() == TypeId::kDouble)
          return Value::Double(std::fabs(v.AsDouble()));
        return Status::InvalidArgument("abs() of text value");
      }
      if (expr.func_name == "length") {
        IMON_ASSIGN_OR_RETURN(Value v,
                              Eval(*expr.args[0], layout, row, aggs));
        if (v.is_null()) return Value::Null();
        IMON_ASSIGN_OR_RETURN(Value text, v.CastTo(TypeId::kText));
        return Value::Int(static_cast<int64_t>(text.AsText().size()));
      }
      if (expr.func_name == "lower" || expr.func_name == "upper") {
        IMON_ASSIGN_OR_RETURN(Value v,
                              Eval(*expr.args[0], layout, row, aggs));
        if (v.is_null()) return Value::Null();
        IMON_ASSIGN_OR_RETURN(Value text, v.CastTo(TypeId::kText));
        std::string s = text.AsText();
        for (char& c : s) {
          c = expr.func_name == "lower"
                  ? static_cast<char>(std::tolower(c))
                  : static_cast<char>(std::toupper(c));
        }
        return Value::Text(std::move(s));
      }
      return Status::Internal("unevaluated aggregate/function '" +
                              expr.func_name + "'");
    }

    case ExprKind::kBetween: {
      IMON_ASSIGN_OR_RETURN(Value v, Eval(*expr.lhs, layout, row, aggs));
      IMON_ASSIGN_OR_RETURN(Value lo, Eval(*expr.low, layout, row, aggs));
      IMON_ASSIGN_OR_RETURN(Value hi, Eval(*expr.high, layout, row, aggs));
      int cmp_lo = CompareSql(v, lo);
      int cmp_hi = CompareSql(v, hi);
      if (cmp_lo == -2 || cmp_hi == -2) return Value::Null();
      bool in = cmp_lo >= 0 && cmp_hi <= 0;
      return BoolValue(expr.negated ? !in : in);
    }

    case ExprKind::kInList: {
      IMON_ASSIGN_OR_RETURN(Value v, Eval(*expr.lhs, layout, row, aggs));
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      for (const auto& item : expr.in_list) {
        IMON_ASSIGN_OR_RETURN(Value candidate,
                              Eval(*item, layout, row, aggs));
        int cmp = CompareSql(v, candidate);
        if (cmp == -2) {
          saw_null = true;
        } else if (cmp == 0) {
          return BoolValue(!expr.negated);
        }
      }
      if (saw_null) return Value::Null();
      return BoolValue(expr.negated);
    }

    case ExprKind::kIsNull: {
      IMON_ASSIGN_OR_RETURN(Value v, Eval(*expr.lhs, layout, row, aggs));
      bool is_null = v.is_null();
      return BoolValue(expr.negated ? !is_null : is_null);
    }

    case ExprKind::kLike: {
      IMON_ASSIGN_OR_RETURN(Value v, Eval(*expr.lhs, layout, row, aggs));
      if (v.is_null()) return Value::Null();
      IMON_ASSIGN_OR_RETURN(Value text, v.CastTo(TypeId::kText));
      bool match = LikeMatch(text.AsText(), expr.like_pattern);
      return BoolValue(expr.negated ? !match : match);
    }

    case ExprKind::kStar:
      return Status::Internal("cannot evaluate '*'");
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> EvalPredicate(const Expr& expr,
                           const optimizer::OutputLayout& layout,
                           const Row& row, const AggregateValues* aggs) {
  IMON_ASSIGN_OR_RETURN(Value v, Eval(expr, layout, row, aggs));
  return !v.is_null() && v.AsDouble() != 0;
}

Result<Value> RunProgram(const Expr& expr,
                         const optimizer::OutputLayout& layout,
                         const Row& row, const AggregateValues* aggs) {
  IMON_ASSIGN_OR_RETURN(ExprProgram program,
                        ExprProgram::Compile(expr, layout));
  EvalScratch scratch;
  Value v;
  IMON_RETURN_IF_ERROR(program.Run(row, aggs, &scratch, &v));
  return v;
}

std::string Outcome(const Result<Value>& result) {
  if (!result.ok()) return "error " + result.status().ToString();
  const Value& v = *result;
  if (v.is_null()) return "NULL";
  switch (v.type()) {
    case TypeId::kInt:
      return "int " + std::to_string(v.AsInt());
    case TypeId::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "double %a", v.AsDouble());
      return buf;
    }
    case TypeId::kText:
      break;
  }
  return "text '" + v.AsText() + "'";
}

}  // namespace imon::exec
