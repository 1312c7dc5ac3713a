#include "common/value.h"

#include <gtest/gtest.h>

#include "sql/ast.h"
#include "sql/parser.h"

namespace imon {
namespace {

TEST(ValueTest, Constructors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_FALSE(Value::Int(1).is_null());
  EXPECT_EQ(Value::Int(-5).AsInt(), -5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Text("abc").AsText(), "abc");
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(-999999)), 0);
  EXPECT_LT(Value::Null().Compare(Value::Text("")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null(TypeId::kText)), 0);
}

TEST(ValueTest, CrossNumericComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, TextComparison) {
  EXPECT_LT(Value::Text("abc").Compare(Value::Text("abd")), 0);
  EXPECT_EQ(Value::Text("x").Compare(Value::Text("x")), 0);
  // Numbers sort before text in the total order.
  EXPECT_LT(Value::Int(999).Compare(Value::Text("0")), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::Text("hello").Hash(), Value::Text("hello").Hash());
  EXPECT_NE(Value::Text("hello").Hash(), Value::Text("hellp").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null(TypeId::kText).Hash());
}

TEST(ValueTest, CastIntToDouble) {
  auto r = Value::Int(7).CastTo(TypeId::kDouble);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->AsDouble(), 7.0);
}

TEST(ValueTest, CastTextToInt) {
  auto ok = Value::Text("123").CastTo(TypeId::kInt);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->AsInt(), 123);
  EXPECT_FALSE(Value::Text("12x").CastTo(TypeId::kInt).ok());
  EXPECT_FALSE(Value::Text("").CastTo(TypeId::kInt).ok());
}

TEST(ValueTest, CastNullKeepsNull) {
  auto r = Value::Null().CastTo(TypeId::kText);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_null());
  EXPECT_EQ(r->type(), TypeId::kText);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Text("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

class ValueRoundTripTest : public ::testing::TestWithParam<Value> {};

TEST_P(ValueRoundTripTest, SerializeDeserialize) {
  const Value& v = GetParam();
  std::string buf;
  v.SerializeTo(&buf);
  size_t offset = 0;
  auto r = Value::DeserializeFrom(buf, &offset);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(r->is_null(), v.is_null());
  EXPECT_EQ(r->type(), v.type());
  if (!v.is_null()) {
    EXPECT_EQ(r->Compare(v), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ValueRoundTripTest,
    ::testing::Values(Value::Null(), Value::Null(TypeId::kText),
                      Value::Int(0), Value::Int(-1),
                      Value::Int(INT64_MAX), Value::Int(INT64_MIN),
                      Value::Double(0.0), Value::Double(-3.75),
                      Value::Double(1e300), Value::Text(""),
                      Value::Text("hello world"),
                      Value::Text(std::string("nul\0byte", 8)),
                      Value::Text(std::string(5000, 'x'))));

TEST(RowTest, RoundTrip) {
  Row row = {Value::Int(1), Value::Text("protein"), Value::Double(2.5),
             Value::Null()};
  std::string buf;
  SerializeRow(row, &buf);
  auto r = DeserializeRow(buf);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 4u);
  EXPECT_EQ((*r)[0].AsInt(), 1);
  EXPECT_EQ((*r)[1].AsText(), "protein");
  EXPECT_DOUBLE_EQ((*r)[2].AsDouble(), 2.5);
  EXPECT_TRUE((*r)[3].is_null());
}

TEST(RowTest, DeserializeRejectsTruncation) {
  Row row = {Value::Int(1), Value::Text("abc")};
  std::string buf;
  SerializeRow(row, &buf);
  for (size_t cut : {buf.size() - 1, buf.size() / 2, size_t{3}}) {
    EXPECT_FALSE(DeserializeRow(buf.substr(0, cut)).ok()) << "cut=" << cut;
  }
}

TEST(ValueTest, SqlLiteralRendersAndParsesBack) {
  struct Case {
    Value value;
    const char* literal;
  };
  const Case cases[] = {
      {Value::Int(42), "42"},
      {Value::Double(3.0), "3.0"},  // gains ".0" to stay a DOUBLE
      {Value::Text("it's"), "'it''s'"},
      {Value::Null(), "NULL"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(SqlLiteral(c.value), c.literal);
    auto stmt =
        sql::Parse("INSERT INTO t VALUES (" + SqlLiteral(c.value) + ")");
    ASSERT_TRUE(stmt.ok()) << c.literal << " -> " << stmt.status();
    const auto& insert = static_cast<const sql::InsertStmt&>(**stmt);
    ASSERT_EQ(insert.rows.size(), 1u);
    ASSERT_EQ(insert.rows[0].size(), 1u);
    const sql::Expr& parsed = *insert.rows[0][0];
    ASSERT_EQ(parsed.kind, sql::ExprKind::kLiteral) << c.literal;
    EXPECT_EQ(parsed.literal.is_null(), c.value.is_null()) << c.literal;
    if (!c.value.is_null()) {
      EXPECT_EQ(parsed.literal.type(), c.value.type()) << c.literal;
      EXPECT_EQ(parsed.literal, c.value) << c.literal;
    }
  }
}

TEST(RowTest, HashRowDiffersOnOrder) {
  Row a = {Value::Int(1), Value::Int(2)};
  Row b = {Value::Int(2), Value::Int(1)};
  EXPECT_NE(HashRow(a), HashRow(b));
  EXPECT_EQ(HashRow(a), HashRow({Value::Int(1), Value::Int(2)}));
}

}  // namespace
}  // namespace imon
