// Expression-level differential oracle: seeded random bound expressions
// run as compiled ExprPrograms and through the reference tree walker
// (tests/exec/reference_eval.h) must produce the identical value or the
// identical error. The generator covers NULLs, int/double/text mixes,
// integer overflow, AND/OR short-circuiting over operands that error,
// IN lists with NULL candidates, BETWEEN, LIKE, the scalar functions
// and aggregate slots.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "exec/expr_program.h"
#include "tests/exec/reference_eval.h"

namespace imon::exec {
namespace {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;

constexpr int kColumns = 4;  // c0 INT, c1 DOUBLE, c2 TEXT, c3 INT
constexpr int kAggSlots = 2;

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  Value IntValue() {
    static const int64_t kInts[] = {0,
                                    1,
                                    -1,
                                    2,
                                    7,
                                    -3,
                                    100,
                                    std::numeric_limits<int64_t>::max(),
                                    std::numeric_limits<int64_t>::min(),
                                    std::numeric_limits<int64_t>::min() + 1};
    if (Pick(6) == 0) return Value::Null();
    return Value::Int(kInts[Pick(std::size(kInts))]);
  }

  Value DoubleValue() {
    static const double kDoubles[] = {0.0, 0.5, -2.25, 3.0, 7.0, 1e300};
    if (Pick(6) == 0) return Value::Null();
    return Value::Double(kDoubles[Pick(std::size(kDoubles))]);
  }

  Value TextValue() {
    static const char* const kTexts[] = {"", "a", "abc", "hello", "HeLLo",
                                         "a%b", "7"};
    if (Pick(6) == 0) return Value::Null();
    return Value::Text(kTexts[Pick(std::size(kTexts))]);
  }

  Value AnyValue() {
    switch (Pick(3)) {
      case 0:
        return IntValue();
      case 1:
        return DoubleValue();
      default:
        return TextValue();
    }
  }

  Row MakeRow() { return {IntValue(), DoubleValue(), TextValue(), IntValue()}; }

  AggregateValues MakeAggs() {
    AggregateValues aggs;
    for (int i = 0; i < kAggSlots; ++i) aggs.push_back(AnyValue());
    return aggs;
  }

  ExprPtr MakeExpr(int depth) {
    if (depth <= 0 || Pick(4) == 0) return Leaf();
    switch (Pick(9)) {
      case 0:
      case 1: {
        static const BinaryOp kOps[] = {
            BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
            BinaryOp::kMod, BinaryOp::kEq,  BinaryOp::kNe,  BinaryOp::kLt,
            BinaryOp::kLe,  BinaryOp::kGt,  BinaryOp::kGe};
        return Expr::MakeBinary(kOps[Pick(std::size(kOps))],
                                MakeExpr(depth - 1), MakeExpr(depth - 1));
      }
      case 2:
        // Logic over operands that may error: the short-circuit must skip
        // exactly the operands SQL leaves unevaluated.
        return Expr::MakeBinary(Pick(2) == 0 ? BinaryOp::kAnd : BinaryOp::kOr,
                                MakeExpr(depth - 1), MakeExpr(depth - 1));
      case 3:
        return Expr::MakeUnary(
            Pick(2) == 0 ? sql::UnaryOp::kNot : sql::UnaryOp::kNeg,
            MakeExpr(depth - 1));
      case 4: {
        static const char* const kFuncs[] = {"abs", "length", "lower",
                                             "upper"};
        auto e = NewExpr(ExprKind::kFuncCall);
        e->func_name = kFuncs[Pick(std::size(kFuncs))];
        e->args.push_back(MakeExpr(depth - 1));
        return e;
      }
      case 5: {
        auto e = NewExpr(ExprKind::kBetween);
        e->lhs = MakeExpr(depth - 1);
        e->low = MakeExpr(depth - 1);
        e->high = MakeExpr(depth - 1);
        e->negated = Pick(2) == 0;
        return e;
      }
      case 6: {
        auto e = NewExpr(ExprKind::kInList);
        e->lhs = MakeExpr(depth - 1);
        size_t n = 1 + Pick(3);
        for (size_t i = 0; i < n; ++i) {
          e->in_list.push_back(Pick(4) == 0 ? Expr::MakeLiteral(Value::Null())
                                            : MakeExpr(depth - 1));
        }
        e->negated = Pick(2) == 0;
        return e;
      }
      case 7: {
        auto e = NewExpr(ExprKind::kIsNull);
        e->lhs = MakeExpr(depth - 1);
        e->negated = Pick(2) == 0;
        return e;
      }
      default: {
        static const char* const kPatterns[] = {"a%", "%b%", "h_llo", "%",
                                                "",   "_",   "%L%"};
        auto e = NewExpr(ExprKind::kLike);
        e->lhs = MakeExpr(depth - 1);
        e->like_pattern = kPatterns[Pick(std::size(kPatterns))];
        e->negated = Pick(2) == 0;
        return e;
      }
    }
  }

 private:
  size_t Pick(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  static ExprPtr NewExpr(ExprKind kind) {
    auto e = Expr::MakeLiteral(Value::Null());
    e->kind = kind;
    return e;
  }

  ExprPtr Leaf() {
    switch (Pick(4)) {
      case 0:
        return Expr::MakeLiteral(AnyValue());
      case 1: {
        auto e = NewExpr(ExprKind::kFuncCall);
        e->func_name = "sum";
        e->agg_slot = static_cast<int>(Pick(kAggSlots));
        return e;
      }
      default: {
        int col = static_cast<int>(Pick(kColumns));
        auto e = Expr::MakeColumn("", "c" + std::to_string(col));
        e->bound_table = 0;
        e->bound_column = col;
        return e;
      }
    }
  }

  std::mt19937_64 rng_;
};

TEST(ExprDifferentialTest, ProgramsMatchReferenceEvaluator) {
  const auto layout = optimizer::OutputLayout::ForTable(0, 1, kColumns);
  int errors = 0;
  int nulls = 0;
  int values = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Generator gen(seed);
    ExprPtr expr = gen.MakeExpr(4);
    for (int r = 0; r < 8; ++r) {
      Row row = gen.MakeRow();
      AggregateValues aggs = gen.MakeAggs();
      Result<Value> program = RunProgram(*expr, layout, row, &aggs);
      std::string got = Outcome(program);
      ASSERT_EQ(got, Outcome(Eval(*expr, layout, row, &aggs)))
          << "seed " << seed << " row " << r << ": " << expr->ToString();
      if (!program.ok()) {
        ++errors;
      } else if (program->is_null()) {
        ++nulls;
      } else {
        ++values;
      }
    }
  }
  // The generator reaches every outcome class, so agreement is not
  // vacuous.
  EXPECT_GT(errors, 100);
  EXPECT_GT(nulls, 100);
  EXPECT_GT(values, 100);
}

// Hand-picked short-circuit shapes: an erroring operand is skipped only
// where SQL leaves it unevaluated, and raised everywhere else.
TEST(ExprDifferentialTest, ShortCircuitOverErroringOperand) {
  const auto layout = optimizer::OutputLayout::ForTable(0, 1, kColumns);
  Row row = {Value::Int(1), Value::Double(0.5), Value::Text("t"),
             Value::Null()};
  auto erroring = [] {
    return Expr::MakeBinary(BinaryOp::kSub,
                            Expr::MakeLiteral(Value::Text("x")),
                            Expr::MakeLiteral(Value::Int(1)));
  };
  struct Case {
    BinaryOp op;
    Value lhs;
    const char* expected;
  };
  const Case cases[] = {
      {BinaryOp::kAnd, Value::Int(0), "int 0"},
      {BinaryOp::kOr, Value::Int(1), "int 1"},
      {BinaryOp::kAnd, Value::Int(1),
       "error InvalidArgument: arithmetic on text value"},
      {BinaryOp::kAnd, Value::Null(),
       "error InvalidArgument: arithmetic on text value"},
      {BinaryOp::kOr, Value::Int(0),
       "error InvalidArgument: arithmetic on text value"},
  };
  for (const Case& c : cases) {
    ExprPtr expr =
        Expr::MakeBinary(c.op, Expr::MakeLiteral(c.lhs), erroring());
    std::string got = Outcome(RunProgram(*expr, layout, row));
    EXPECT_EQ(got, Outcome(Eval(*expr, layout, row))) << expr->ToString();
    EXPECT_EQ(got, c.expected) << expr->ToString();
  }
}

}  // namespace
}  // namespace imon::exec
