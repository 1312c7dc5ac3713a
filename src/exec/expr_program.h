// Compiled expression programs: flat postfix op arrays evaluated with a
// reusable value stack. They are the engine's only expression evaluator:
// SELECT filters, join keys and residuals, projections, aggregates,
// HAVING and ORDER BY, DML WHERE/SET, INSERT VALUES and trigger WHEN
// all run as programs.
//
// The binder annotates the AST once per statement; Compile() then walks
// the bound tree once and emits a contiguous vector of ExprOp — column
// positions resolved against the node's OutputLayout at compile time,
// aggregate calls resolved to their bind-time slot, literals and LIKE
// patterns interned in program-owned pools. Evaluation is a tight loop
// over the op array with no per-node Result<Value> allocation on the
// non-error path. Short-circuit ops (AND/OR probes, IN steps,
// NULL-propagation jumps) skip the subexpressions SQL leaves
// unevaluated, so an error in an operand that is never reached is never
// raised; the test-only reference evaluator
// (tests/exec/reference_eval.h) holds these semantics fixed. Programs
// are immutable after Compile and safe to share across threads (the
// plan cache stores them alongside the plan).

#ifndef IMON_EXEC_EXPR_PROGRAM_H_
#define IMON_EXEC_EXPR_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/expression_eval.h"
#include "exec/row_batch.h"
#include "optimizer/binder.h"
#include "optimizer/plan.h"
#include "sql/ast.h"

namespace imon::exec {

enum class OpCode : uint8_t {
  kPushLiteral,  ///< a = literal pool index
  kPushColumn,   ///< a = resolved row position
  kPushAgg,      ///< a = aggregate slot
  kAndProbe,     ///< a = jump target; TOS non-null false -> TOS=0, jump
  kAndCombine,   ///< pop r, l; Kleene AND
  kOrProbe,      ///< a = jump target; TOS non-null true -> TOS=1, jump
  kOrCombine,    ///< pop r, l; Kleene OR
  kCompare,      ///< b = sql::BinaryOp; pop r, l
  kArith,        ///< b = sql::BinaryOp; pop r, l
  kNot,          ///< logical NOT of TOS
  kNeg,          ///< arithmetic negation of TOS
  kAbs,
  kLength,
  kLower,
  kUpper,
  kBetween,      ///< b = negated; pop hi, lo, v
  kJumpIfNull,   ///< a = jump target; jump if TOS is NULL (TOS kept)
  kInStep,       ///< a = end target, b = negated; stack [v, flag, cand]
  kInFinish,     ///< b = negated; pop flag, v
  kIsNull,       ///< b = negated
  kLike,         ///< a = pattern pool index, b = negated
};

struct ExprOp {
  OpCode code;
  uint8_t b = 0;
  int32_t a = 0;
};

/// Reusable evaluation scratch (one per executing thread/statement).
struct EvalScratch {
  std::vector<Value> stack;
};

class ExprProgram {
 public:
  /// Compile a bound expression against `layout`. Fails on columns
  /// absent from `layout` or expressions the program machine cannot
  /// represent; the caller returns that error as the statement's Status.
  static Result<ExprProgram> Compile(const sql::Expr& expr,
                                     const optimizer::OutputLayout& layout);

  /// Evaluate against one row; `*out` receives the value.
  Status Run(const Row& row, const AggregateValues* aggs,
             EvalScratch* scratch, Value* out) const;

  /// Predicate form: *out = value is non-NULL and non-zero.
  Status RunPredicate(const Row& row, const AggregateValues* aggs,
                      EvalScratch* scratch, bool* out) const {
    Value v;
    IMON_RETURN_IF_ERROR(Run(row, aggs, scratch, &v));
    *out = !v.is_null() && v.AsDouble() != 0;
    return Status::OK();
  }

  /// Evaluate as a filter over every selected row of `batch`, compacting
  /// the selection vector in place to the passing rows.
  Status FilterBatch(RowBatch* batch, EvalScratch* scratch) const;

  size_t op_count() const { return ops_.size(); }

 private:
  std::vector<ExprOp> ops_;
  std::vector<Value> literals_;
  std::vector<std::string> patterns_;

  Status Emit(const sql::Expr& expr, const optimizer::OutputLayout& layout);
};

/// Programs of one plan node, each compiled against the layout the
/// executor evaluates it on.
struct NodePrograms {
  std::vector<ExprProgram> filters;  ///< scan conjuncts (node layout)
  /// Equi-join key pairs, aligned with PlanNode::equi_keys. Hash joins
  /// compile the outer side against the left child's layout and the
  /// inner side against the right child's; nested-loop and index-NL
  /// joins compile both against the combined (node) layout.
  std::vector<ExprProgram> outer_keys;
  std::vector<ExprProgram> inner_keys;
  std::vector<ExprProgram> residual;  ///< join residuals (node layout)
  std::vector<ExprProgram> probe;     ///< index-NL probe keys (left layout)
};

/// Every program a SELECT needs, compiled once per statement and cached
/// alongside the plan. Per-node programs are indexed by the node's
/// pre-order position in the plan tree (node, then left subtree, then
/// right subtree) — PlanNode carries no id, and the executor traverses
/// in the same order.
struct CompiledSelect {
  std::vector<NodePrograms> nodes;
  std::vector<ExprProgram> items;       ///< select-list expressions
  std::vector<ExprProgram> group_keys;  ///< GROUP BY key expressions
  /// Aligned with BoundSelect::aggregates; empty for COUNT(*).
  std::vector<std::optional<ExprProgram>> agg_args;
  std::optional<ExprProgram> having;
  std::vector<ExprProgram> order_keys;  ///< ORDER BY key expressions

  static Result<std::shared_ptr<const CompiledSelect>> Compile(
      const optimizer::BoundSelect& bound, const optimizer::PlanNode& plan);
};

}  // namespace imon::exec

#endif  // IMON_EXEC_EXPR_PROGRAM_H_
