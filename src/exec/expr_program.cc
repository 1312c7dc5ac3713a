#include "exec/expr_program.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

namespace imon::exec {

using optimizer::BoundSelect;
using optimizer::OutputLayout;
using optimizer::PlanNode;
using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;

namespace {

Value BoolValue(bool b) { return Value::Int(b ? 1 : 0); }

/// Pre-order enumeration matching the executor's traversal (node, left
/// subtree, right subtree) — the shared indexing scheme for per-node
/// programs.
void CollectNodes(const PlanNode& node, std::vector<const PlanNode*>* out) {
  out->push_back(&node);
  if (node.left) CollectNodes(*node.left, out);
  if (node.right) CollectNodes(*node.right, out);
}

/// Compile `expr` against `layout`, appending the program to `out`.
Status CompileInto(const Expr& expr, const OutputLayout& layout,
                   std::vector<ExprProgram>* out) {
  IMON_ASSIGN_OR_RETURN(ExprProgram p, ExprProgram::Compile(expr, layout));
  out->push_back(std::move(p));
  return Status::OK();
}

/// Every program of one plan node (see NodePrograms for the layouts).
Status CompileNode(const PlanNode& node, NodePrograms* out) {
  for (const Expr* f : node.filters) {
    IMON_RETURN_IF_ERROR(CompileInto(*f, node.layout, &out->filters));
  }
  const bool hash = node.kind == optimizer::PlanNodeKind::kHashJoin;
  for (const auto& [outer, inner] : node.equi_keys) {
    IMON_RETURN_IF_ERROR(CompileInto(
        *outer, hash ? node.left->layout : node.layout, &out->outer_keys));
    IMON_RETURN_IF_ERROR(CompileInto(
        *inner, hash ? node.right->layout : node.layout, &out->inner_keys));
  }
  for (const Expr* r : node.residual) {
    IMON_RETURN_IF_ERROR(CompileInto(*r, node.layout, &out->residual));
  }
  for (const Expr* p : node.probe_exprs) {
    IMON_RETURN_IF_ERROR(CompileInto(*p, node.left->layout, &out->probe));
  }
  return Status::OK();
}

Status OutOfRange() { return Status::InvalidArgument("integer out of range"); }

}  // namespace

Status ExprProgram::Emit(const Expr& expr, const OutputLayout& layout) {
  switch (expr.kind) {
    case ExprKind::kLiteral: {
      ExprOp op{OpCode::kPushLiteral};
      op.a = static_cast<int32_t>(literals_.size());
      literals_.push_back(expr.literal);
      ops_.push_back(op);
      return Status::OK();
    }

    case ExprKind::kColumnRef: {
      int pos = layout.PositionOf(expr.bound_table, expr.bound_column);
      if (pos < 0) {
        return Status::Internal("column " + expr.ToString() +
                                " not present in row layout");
      }
      ExprOp op{OpCode::kPushColumn};
      op.a = pos;
      ops_.push_back(op);
      return Status::OK();
    }

    case ExprKind::kBinary: {
      switch (expr.binary_op) {
        case BinaryOp::kAnd: {
          IMON_RETURN_IF_ERROR(Emit(*expr.lhs, layout));
          size_t probe = ops_.size();
          ops_.push_back(ExprOp{OpCode::kAndProbe});
          IMON_RETURN_IF_ERROR(Emit(*expr.rhs, layout));
          ops_.push_back(ExprOp{OpCode::kAndCombine});
          ops_[probe].a = static_cast<int32_t>(ops_.size());
          return Status::OK();
        }
        case BinaryOp::kOr: {
          IMON_RETURN_IF_ERROR(Emit(*expr.lhs, layout));
          size_t probe = ops_.size();
          ops_.push_back(ExprOp{OpCode::kOrProbe});
          IMON_RETURN_IF_ERROR(Emit(*expr.rhs, layout));
          ops_.push_back(ExprOp{OpCode::kOrCombine});
          ops_[probe].a = static_cast<int32_t>(ops_.size());
          return Status::OK();
        }
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          IMON_RETURN_IF_ERROR(Emit(*expr.lhs, layout));
          IMON_RETURN_IF_ERROR(Emit(*expr.rhs, layout));
          ExprOp op{OpCode::kCompare};
          op.b = static_cast<uint8_t>(expr.binary_op);
          ops_.push_back(op);
          return Status::OK();
        }
        default: {
          IMON_RETURN_IF_ERROR(Emit(*expr.lhs, layout));
          IMON_RETURN_IF_ERROR(Emit(*expr.rhs, layout));
          ExprOp op{OpCode::kArith};
          op.b = static_cast<uint8_t>(expr.binary_op);
          ops_.push_back(op);
          return Status::OK();
        }
      }
    }

    case ExprKind::kUnary: {
      IMON_RETURN_IF_ERROR(Emit(*expr.lhs, layout));
      ops_.push_back(ExprOp{expr.unary_op == sql::UnaryOp::kNot
                                ? OpCode::kNot
                                : OpCode::kNeg});
      return Status::OK();
    }

    case ExprKind::kFuncCall: {
      if (expr.agg_slot >= 0) {
        ExprOp op{OpCode::kPushAgg};
        op.a = expr.agg_slot;
        ops_.push_back(op);
        return Status::OK();
      }
      OpCode code;
      if (expr.func_name == "abs") {
        code = OpCode::kAbs;
      } else if (expr.func_name == "length") {
        code = OpCode::kLength;
      } else if (expr.func_name == "lower") {
        code = OpCode::kLower;
      } else if (expr.func_name == "upper") {
        code = OpCode::kUpper;
      } else {
        return Status::Internal("cannot compile function '" +
                                expr.func_name + "'");
      }
      // INSERT VALUES are not bound, so the arity is checked here too.
      if (expr.args.size() != 1) {
        return Status::InvalidArgument("function '" + expr.func_name +
                                       "' takes exactly one argument");
      }
      IMON_RETURN_IF_ERROR(Emit(*expr.args[0], layout));
      ops_.push_back(ExprOp{code});
      return Status::OK();
    }

    case ExprKind::kBetween: {
      IMON_RETURN_IF_ERROR(Emit(*expr.lhs, layout));
      IMON_RETURN_IF_ERROR(Emit(*expr.low, layout));
      IMON_RETURN_IF_ERROR(Emit(*expr.high, layout));
      ExprOp op{OpCode::kBetween};
      op.b = expr.negated ? 1 : 0;
      ops_.push_back(op);
      return Status::OK();
    }

    case ExprKind::kInList: {
      IMON_RETURN_IF_ERROR(Emit(*expr.lhs, layout));
      size_t null_jump = ops_.size();
      ops_.push_back(ExprOp{OpCode::kJumpIfNull});
      // saw_null flag lives on the stack below the candidates.
      ExprOp flag{OpCode::kPushLiteral};
      flag.a = static_cast<int32_t>(literals_.size());
      literals_.push_back(Value::Int(0));
      ops_.push_back(flag);
      std::vector<size_t> steps;
      for (const auto& item : expr.in_list) {
        IMON_RETURN_IF_ERROR(Emit(*item, layout));
        steps.push_back(ops_.size());
        ExprOp step{OpCode::kInStep};
        step.b = expr.negated ? 1 : 0;
        ops_.push_back(step);
      }
      ExprOp fin{OpCode::kInFinish};
      fin.b = expr.negated ? 1 : 0;
      ops_.push_back(fin);
      int32_t end = static_cast<int32_t>(ops_.size());
      ops_[null_jump].a = end;
      for (size_t s : steps) ops_[s].a = end;
      return Status::OK();
    }

    case ExprKind::kIsNull: {
      IMON_RETURN_IF_ERROR(Emit(*expr.lhs, layout));
      ExprOp op{OpCode::kIsNull};
      op.b = expr.negated ? 1 : 0;
      ops_.push_back(op);
      return Status::OK();
    }

    case ExprKind::kLike: {
      IMON_RETURN_IF_ERROR(Emit(*expr.lhs, layout));
      ExprOp op{OpCode::kLike};
      op.a = static_cast<int32_t>(patterns_.size());
      patterns_.push_back(expr.like_pattern);
      op.b = expr.negated ? 1 : 0;
      ops_.push_back(op);
      return Status::OK();
    }

    case ExprKind::kStar:
      return Status::Internal("cannot compile '*'");
  }
  return Status::Internal("unhandled expression kind");
}

Result<ExprProgram> ExprProgram::Compile(const Expr& expr,
                                         const OutputLayout& layout) {
  ExprProgram program;
  IMON_RETURN_IF_ERROR(program.Emit(expr, layout));
  return program;
}

Status ExprProgram::Run(const Row& row, const AggregateValues* aggs,
                        EvalScratch* scratch, Value* out) const {
  std::vector<Value>& stack = scratch->stack;
  const size_t n = ops_.size();
  // The stack is an arena indexed by `top`: slots are assigned, never
  // pushed or popped, so the per-row hot loop does no Value
  // construction/destruction and slot string capacity is reused. Depth
  // can never exceed one slot per op.
  if (stack.size() < n + 1) stack.resize(n + 1);
  size_t top = 0;
  for (size_t pc = 0; pc < n; ++pc) {
    const ExprOp& op = ops_[pc];
    switch (op.code) {
      case OpCode::kPushLiteral:
        stack[top++] = literals_[op.a];
        break;

      case OpCode::kPushColumn:
        if (static_cast<size_t>(op.a) >= row.size()) {
          return Status::Internal("row narrower than compiled layout");
        }
        stack[top++] = row[op.a];
        break;

      case OpCode::kPushAgg:
        if (aggs == nullptr ||
            static_cast<size_t>(op.a) >= aggs->size()) {
          return Status::Internal("unevaluated aggregate slot");
        }
        stack[top++] = (*aggs)[op.a];
        break;

      case OpCode::kAndProbe: {
        Value& t = stack[top - 1];
        if (!t.is_null() && t.AsDouble() == 0) {
          t = BoolValue(false);
          pc = static_cast<size_t>(op.a) - 1;
        }
        break;
      }
      case OpCode::kAndCombine: {
        const Value& r = stack[--top];
        Value& l = stack[top - 1];
        if (!r.is_null() && r.AsDouble() == 0) {
          l = BoolValue(false);
        } else if (l.is_null() || r.is_null()) {
          l = Value::Null();
        } else {
          l = BoolValue(true);
        }
        break;
      }
      case OpCode::kOrProbe: {
        Value& t = stack[top - 1];
        if (!t.is_null() && t.AsDouble() != 0) {
          t = BoolValue(true);
          pc = static_cast<size_t>(op.a) - 1;
        }
        break;
      }
      case OpCode::kOrCombine: {
        const Value& r = stack[--top];
        Value& l = stack[top - 1];
        if (!r.is_null() && r.AsDouble() != 0) {
          l = BoolValue(true);
        } else if (l.is_null() || r.is_null()) {
          l = Value::Null();
        } else {
          l = BoolValue(false);
        }
        break;
      }

      case OpCode::kCompare: {
        const Value& r = stack[--top];
        Value& l = stack[top - 1];
        int cmp = CompareSql(l, r);
        if (cmp == -2) {
          l = Value::Null();
          break;
        }
        switch (static_cast<BinaryOp>(op.b)) {
          case BinaryOp::kEq:
            l = BoolValue(cmp == 0);
            break;
          case BinaryOp::kNe:
            l = BoolValue(cmp != 0);
            break;
          case BinaryOp::kLt:
            l = BoolValue(cmp < 0);
            break;
          case BinaryOp::kLe:
            l = BoolValue(cmp <= 0);
            break;
          case BinaryOp::kGt:
            l = BoolValue(cmp > 0);
            break;
          default:
            l = BoolValue(cmp >= 0);
            break;
        }
        break;
      }

      case OpCode::kArith: {
        const Value& r = stack[--top];
        Value& l = stack[top - 1];
        Value result;
        IMON_RETURN_IF_ERROR(
            ArithmeticOp(static_cast<BinaryOp>(op.b), l, r, &result));
        l = std::move(result);
        break;
      }

      case OpCode::kNot: {
        Value& t = stack[top - 1];
        if (!t.is_null()) t = BoolValue(t.AsDouble() == 0);
        break;
      }
      case OpCode::kNeg: {
        Value& t = stack[top - 1];
        if (t.is_null()) break;
        if (t.type() == TypeId::kInt) {
          if (t.AsInt() == std::numeric_limits<int64_t>::min()) {
            return OutOfRange();
          }
          t = Value::Int(-t.AsInt());
        } else if (t.type() == TypeId::kDouble) {
          t = Value::Double(-t.AsDouble());
        } else {
          return Status::InvalidArgument("negation of text value");
        }
        break;
      }

      case OpCode::kAbs: {
        Value& t = stack[top - 1];
        if (t.is_null()) break;
        if (t.type() == TypeId::kInt) {
          if (t.AsInt() == std::numeric_limits<int64_t>::min()) {
            return OutOfRange();
          }
          t = Value::Int(std::abs(t.AsInt()));
        } else if (t.type() == TypeId::kDouble) {
          t = Value::Double(std::fabs(t.AsDouble()));
        } else {
          return Status::InvalidArgument("abs() of text value");
        }
        break;
      }
      case OpCode::kLength: {
        Value& t = stack[top - 1];
        if (t.is_null()) break;
        IMON_ASSIGN_OR_RETURN(Value text, t.CastTo(TypeId::kText));
        t = Value::Int(static_cast<int64_t>(text.AsText().size()));
        break;
      }
      case OpCode::kLower:
      case OpCode::kUpper: {
        Value& t = stack[top - 1];
        if (t.is_null()) break;
        IMON_ASSIGN_OR_RETURN(Value text, t.CastTo(TypeId::kText));
        std::string s = text.AsText();
        for (char& c : s) {
          c = op.code == OpCode::kLower
                  ? static_cast<char>(std::tolower(c))
                  : static_cast<char>(std::toupper(c));
        }
        t = Value::Text(std::move(s));
        break;
      }

      case OpCode::kBetween: {
        const Value& hi = stack[--top];
        const Value& lo = stack[--top];
        Value& v = stack[top - 1];
        int cmp_lo = CompareSql(v, lo);
        int cmp_hi = CompareSql(v, hi);
        if (cmp_lo == -2 || cmp_hi == -2) {
          v = Value::Null();
          break;
        }
        bool in = cmp_lo >= 0 && cmp_hi <= 0;
        v = BoolValue(op.b ? !in : in);
        break;
      }

      case OpCode::kJumpIfNull:
        if (stack[top - 1].is_null()) pc = static_cast<size_t>(op.a) - 1;
        break;

      case OpCode::kInStep: {
        const Value& cand = stack[--top];
        // Stack now [..., v, flag].
        int cmp = CompareSql(stack[top - 2], cand);
        if (cmp == -2) {
          stack[top - 1] = Value::Int(1);  // saw_null
        } else if (cmp == 0) {
          stack[top - 2] = BoolValue(op.b == 0);
          --top;
          pc = static_cast<size_t>(op.a) - 1;
        }
        break;
      }
      case OpCode::kInFinish: {
        bool saw_null = stack[--top].AsInt() != 0;
        stack[top - 1] = saw_null ? Value::Null() : BoolValue(op.b != 0);
        break;
      }

      case OpCode::kIsNull: {
        Value& t = stack[top - 1];
        bool is_null = t.is_null();
        t = BoolValue(op.b ? !is_null : is_null);
        break;
      }

      case OpCode::kLike: {
        Value& t = stack[top - 1];
        if (t.is_null()) break;
        IMON_ASSIGN_OR_RETURN(Value text, t.CastTo(TypeId::kText));
        bool match = LikeMatch(text.AsText(), patterns_[op.a]);
        t = BoolValue(op.b ? !match : match);
        break;
      }
    }
  }
  if (top != 1) {
    return Status::Internal("expression program stack imbalance");
  }
  *out = stack[0];
  return Status::OK();
}

Status ExprProgram::FilterBatch(RowBatch* batch, EvalScratch* scratch) const {
  size_t out = 0;
  Value v;
  for (uint32_t idx : batch->sel) {
    IMON_RETURN_IF_ERROR(Run(batch->rows[idx], nullptr, scratch, &v));
    if (!v.is_null() && v.AsDouble() != 0) batch->sel[out++] = idx;
  }
  batch->sel.resize(out);
  return Status::OK();
}

Result<std::shared_ptr<const CompiledSelect>> CompiledSelect::Compile(
    const BoundSelect& bound, const PlanNode& plan) {
  auto compiled = std::make_shared<CompiledSelect>();
  std::vector<const PlanNode*> nodes;
  CollectNodes(plan, &nodes);
  compiled->nodes.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    IMON_RETURN_IF_ERROR(CompileNode(*nodes[i], &compiled->nodes[i]));
  }
  for (const auto& item : bound.items) {
    IMON_RETURN_IF_ERROR(
        CompileInto(*item.expr, plan.layout, &compiled->items));
  }
  const sql::SelectStmt& stmt = *bound.stmt;
  for (const auto& g : stmt.group_by) {
    IMON_RETURN_IF_ERROR(CompileInto(*g, plan.layout, &compiled->group_keys));
  }
  for (const auto& agg : bound.aggregates) {
    if (agg.arg == nullptr) {
      compiled->agg_args.emplace_back(std::nullopt);
    } else {
      IMON_ASSIGN_OR_RETURN(ExprProgram p,
                            ExprProgram::Compile(*agg.arg, plan.layout));
      compiled->agg_args.emplace_back(std::move(p));
    }
  }
  if (stmt.having) {
    IMON_ASSIGN_OR_RETURN(ExprProgram p,
                          ExprProgram::Compile(*stmt.having, plan.layout));
    compiled->having.emplace(std::move(p));
  }
  for (const auto& o : stmt.order_by) {
    IMON_RETURN_IF_ERROR(
        CompileInto(*o.expr, plan.layout, &compiled->order_keys));
  }
  return std::shared_ptr<const CompiledSelect>(std::move(compiled));
}

}  // namespace imon::exec
