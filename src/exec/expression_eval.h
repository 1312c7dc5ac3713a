// SQL value primitives with three-valued logic, shared by the compiled
// ExprProgram machine (exec/expr_program.h) — the engine's only
// expression evaluator — and by the test-only reference evaluator it is
// checked against.

#ifndef IMON_EXEC_EXPRESSION_EVAL_H_
#define IMON_EXEC_EXPRESSION_EVAL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"

namespace imon::exec {

/// Values of evaluated aggregate calls, indexed by Expr::agg_slot (the
/// binder assigns slots in BoundSelect::aggregates order).
using AggregateValues = std::vector<Value>;

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// Three-valued comparison result: -2 when either operand is NULL.
int CompareSql(const Value& a, const Value& b);

/// SQL arithmetic with NULL propagation ('+' concatenates text,
/// division by zero yields NULL, '%' requires integers). Integer
/// overflow, INT64_MIN / -1 and INT64_MIN % -1 are InvalidArgument
/// ("integer out of range"), never undefined behaviour. Status-based so
/// the non-error path pays no Result<Value>.
Status ArithmeticOp(sql::BinaryOp op, const Value& l, const Value& r,
                    Value* out);

}  // namespace imon::exec

#endif  // IMON_EXEC_EXPRESSION_EVAL_H_
