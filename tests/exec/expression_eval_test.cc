// Expression semantics, checked on both evaluators: every case runs as
// a compiled ExprProgram and through the reference tree walker, which
// must agree on the value or the error.

#include "exec/expression_eval.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "exec/expr_program.h"
#include "sql/parser.h"
#include "tests/exec/reference_eval.h"

namespace imon::exec {
namespace {

/// Evaluate `expr` on both evaluators, expecting identical outcomes;
/// returns the program's result.
Result<Value> EvalBoth(const sql::Expr& expr,
                       const optimizer::OutputLayout& layout, const Row& row) {
  Result<Value> program = RunProgram(expr, layout, row);
  EXPECT_EQ(Outcome(program), Outcome(Eval(expr, layout, row)))
      << expr.ToString();
  return program;
}

/// Evaluate a constant SQL expression (no column refs).
Value EvalConst(const std::string& text) {
  auto expr = sql::ParseExpression(text);
  EXPECT_TRUE(expr.ok()) << text << " -> " << expr.status();
  auto v = EvalBoth(**expr, optimizer::OutputLayout(), Row());
  EXPECT_TRUE(v.ok()) << text << " -> " << v.status();
  return v.ok() ? v.TakeValue() : Value();
}

/// The error a constant SQL expression raises on both evaluators.
std::string ConstError(const std::string& text) {
  auto expr = sql::ParseExpression(text);
  EXPECT_TRUE(expr.ok()) << text << " -> " << expr.status();
  auto v = EvalBoth(**expr, optimizer::OutputLayout(), Row());
  EXPECT_FALSE(v.ok()) << text << " -> " << Outcome(v);
  return v.ok() ? "" : v.status().message();
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(EvalConst("1 + 2 * 3").AsInt(), 7);
  EXPECT_EQ(EvalConst("(1 + 2) * 3").AsInt(), 9);
  EXPECT_EQ(EvalConst("10 - 4 - 3").AsInt(), 3);
  EXPECT_EQ(EvalConst("7 % 3").AsInt(), 1);
  EXPECT_DOUBLE_EQ(EvalConst("1.5 * 2").AsDouble(), 3.0);
  // Integer division truncates; mixed division is exact.
  EXPECT_EQ(EvalConst("7 / 2").AsInt(), 3);
  EXPECT_DOUBLE_EQ(EvalConst("7.0 / 2").AsDouble(), 3.5);
}

// Integer overflow is an error on every operator, never a trap or a
// wrapped value; INT64_MIN is spelled -9223372036854775807 - 1.
TEST(ExprEvalTest, IntegerOverflowIsAnError) {
  const char* const kMin = "(-9223372036854775807 - 1)";
  for (const std::string& text :
       {std::string("9223372036854775807 + 1"),
        std::string(kMin) + " - 1", std::string("4611686018427387904 * 2"),
        std::string(kMin) + " / -1", std::string(kMin) + " % -1",
        "-" + std::string(kMin), "abs(" + std::string(kMin) + ")"}) {
    EXPECT_EQ(ConstError(text), "integer out of range") << text;
  }
  EXPECT_EQ(EvalConst(std::string(kMin) + " / 1").AsInt(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(EvalConst(std::string(kMin) + " % 1").AsInt(), 0);
  EXPECT_EQ(EvalConst("-9223372036854775807 / -1").AsInt(),
            std::numeric_limits<int64_t>::max());
}

TEST(ExprEvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(EvalConst("1 / 0").is_null());
  EXPECT_TRUE(EvalConst("1.5 / 0").is_null());
  EXPECT_TRUE(EvalConst("5 % 0").is_null());
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_EQ(EvalConst("1 < 2").AsInt(), 1);
  EXPECT_EQ(EvalConst("2 <= 1").AsInt(), 0);
  EXPECT_EQ(EvalConst("'abc' = 'abc'").AsInt(), 1);
  EXPECT_EQ(EvalConst("'abc' < 'abd'").AsInt(), 1);
  EXPECT_EQ(EvalConst("3 <> 4").AsInt(), 1);
  EXPECT_EQ(EvalConst("2 = 2.0").AsInt(), 1);  // cross-numeric
}

TEST(ExprEvalTest, ThreeValuedLogic) {
  // Comparisons with NULL yield NULL.
  EXPECT_TRUE(EvalConst("1 = NULL").is_null());
  EXPECT_TRUE(EvalConst("NULL <> NULL").is_null());
  // Kleene AND/OR.
  EXPECT_EQ(EvalConst("FALSE AND NULL").AsInt(), 0);
  EXPECT_TRUE(EvalConst("TRUE AND NULL").is_null());
  EXPECT_EQ(EvalConst("TRUE OR NULL").AsInt(), 1);
  EXPECT_TRUE(EvalConst("FALSE OR NULL").is_null());
  EXPECT_TRUE(EvalConst("NOT NULL").is_null());
  EXPECT_TRUE(EvalConst("1 + NULL").is_null());
}

TEST(ExprEvalTest, BetweenAndIn) {
  EXPECT_EQ(EvalConst("5 BETWEEN 1 AND 10").AsInt(), 1);
  EXPECT_EQ(EvalConst("0 BETWEEN 1 AND 10").AsInt(), 0);
  EXPECT_EQ(EvalConst("5 NOT BETWEEN 1 AND 10").AsInt(), 0);
  EXPECT_EQ(EvalConst("3 IN (1, 2, 3)").AsInt(), 1);
  EXPECT_EQ(EvalConst("9 IN (1, 2, 3)").AsInt(), 0);
  EXPECT_EQ(EvalConst("9 NOT IN (1, 2, 3)").AsInt(), 1);
  // IN with NULLs: unknown unless matched.
  EXPECT_TRUE(EvalConst("9 IN (1, NULL)").is_null());
  EXPECT_EQ(EvalConst("1 IN (1, NULL)").AsInt(), 1);
}

TEST(ExprEvalTest, IsNull) {
  EXPECT_EQ(EvalConst("NULL IS NULL").AsInt(), 1);
  EXPECT_EQ(EvalConst("1 IS NULL").AsInt(), 0);
  EXPECT_EQ(EvalConst("1 IS NOT NULL").AsInt(), 1);
}

TEST(ExprEvalTest, ScalarFunctions) {
  EXPECT_EQ(EvalConst("abs(-5)").AsInt(), 5);
  EXPECT_DOUBLE_EQ(EvalConst("abs(-2.5)").AsDouble(), 2.5);
  EXPECT_EQ(EvalConst("length('hello')").AsInt(), 5);
  EXPECT_EQ(EvalConst("upper('aBc')").AsText(), "ABC");
  EXPECT_EQ(EvalConst("lower('aBc')").AsText(), "abc");
  EXPECT_TRUE(EvalConst("abs(NULL)").is_null());
}

TEST(ExprEvalTest, TextConcatenation) {
  EXPECT_EQ(EvalConst("'ab' + 'cd'").AsText(), "abcd");
}

TEST(ExprEvalTest, ColumnReferences) {
  auto expr = sql::ParseExpression("x + y");
  ASSERT_TRUE(expr.ok());
  (*expr)->lhs->bound_table = 0;
  (*expr)->lhs->bound_column = 0;
  (*expr)->rhs->bound_table = 0;
  (*expr)->rhs->bound_column = 1;
  auto layout = optimizer::OutputLayout::ForTable(0, 1, 2);
  Row row = {Value::Int(3), Value::Int(4)};
  auto v = EvalBoth(**expr, layout, row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 7);
}

struct LikeCase {
  const char* text;
  const char* pattern;
  bool match;
};

class LikeTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.text, c.pattern), c.match)
      << "'" << c.text << "' LIKE '" << c.pattern << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LikeTest,
    ::testing::Values(LikeCase{"hello", "hello", true},
                      LikeCase{"hello", "h%", true},
                      LikeCase{"hello", "%o", true},
                      LikeCase{"hello", "%ell%", true},
                      LikeCase{"hello", "h_llo", true},
                      LikeCase{"hello", "h__lo", true},
                      LikeCase{"hello", "x%", false},
                      LikeCase{"hello", "hello_", false},
                      LikeCase{"", "%", true}, LikeCase{"", "_", false},
                      LikeCase{"abc", "%%", true},
                      LikeCase{"abcabc", "%abc", true},
                      LikeCase{"aXbXc", "a%b%c", true},
                      LikeCase{"ab", "a%b%c", false}));

TEST(ExprEvalTest, PredicateSemantics) {
  optimizer::OutputLayout layout;
  Row row;
  EvalScratch scratch;
  for (const auto& [text, expected] :
       {std::pair<const char*, bool>{"1 < 2", true},
        // NULL predicates are not satisfied.
        {"NULL = 1", false}}) {
    auto expr = sql::ParseExpression(text);
    ASSERT_TRUE(expr.ok());
    auto reference = EvalPredicate(**expr, layout, row);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(*reference, expected) << text;
    auto program = ExprProgram::Compile(**expr, layout);
    ASSERT_TRUE(program.ok());
    bool pass = !expected;
    ASSERT_TRUE(program->RunPredicate(row, nullptr, &scratch, &pass).ok());
    EXPECT_EQ(pass, expected) << text;
  }
}

}  // namespace
}  // namespace imon::exec
