// Reference (oracle) expression evaluator for tests: a direct walk of
// the bound AST with SQL three-valued logic. The engine evaluates only
// compiled ExprPrograms; tests run both and require identical values
// and error messages.

#ifndef IMON_TESTS_EXEC_REFERENCE_EVAL_H_
#define IMON_TESTS_EXEC_REFERENCE_EVAL_H_

#include <string>

#include "common/status.h"
#include "common/value.h"
#include "exec/expression_eval.h"
#include "optimizer/plan.h"
#include "sql/ast.h"

namespace imon::exec {

/// Evaluate `expr` against one row laid out by `layout`. Aggregate calls
/// are looked up in `aggs` (Internal error when absent there).
Result<Value> Eval(const sql::Expr& expr,
                   const optimizer::OutputLayout& layout, const Row& row,
                   const AggregateValues* aggs = nullptr);

/// Predicate evaluation: true iff Eval() yields non-NULL non-zero.
Result<bool> EvalPredicate(const sql::Expr& expr,
                           const optimizer::OutputLayout& layout,
                           const Row& row,
                           const AggregateValues* aggs = nullptr);

/// Compile `expr` against `layout` and run the program on `row`.
Result<Value> RunProgram(const sql::Expr& expr,
                         const optimizer::OutputLayout& layout,
                         const Row& row,
                         const AggregateValues* aggs = nullptr);

/// One evaluation's outcome, rendered so that two outcomes are equal iff
/// the strings are: the exact value (type, bits) or the error status.
std::string Outcome(const Result<Value>& result);

}  // namespace imon::exec

#endif  // IMON_TESTS_EXEC_REFERENCE_EVAL_H_
