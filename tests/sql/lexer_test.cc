#include "sql/lexer.h"

#include <gtest/gtest.h>

namespace imon::sql {
namespace {

std::vector<Token> MustTokenize(const std::string& input) {
  auto r = Tokenize(input);
  EXPECT_TRUE(r.ok()) << input << " -> " << r.status();
  return r.ok() ? r.TakeValue() : std::vector<Token>{};
}

TEST(LexerTest, EmptyInputYieldsEnd) {
  auto tokens = MustTokenize("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  for (const char* text : {"select", "SELECT", "SeLeCt"}) {
    auto tokens = MustTokenize(text);
    ASSERT_EQ(tokens.size(), 2u);
    EXPECT_TRUE(tokens[0].IsKeyword("select")) << text;
  }
}

TEST(LexerTest, IdentifiersLowercased) {
  auto tokens = MustTokenize("MyTable my_col2 _x");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "mytable");
  EXPECT_EQ(tokens[1].text, "my_col2");
  EXPECT_EQ(tokens[2].text, "_x");
}

TEST(LexerTest, IntegerAndFloatLiterals) {
  auto tokens = MustTokenize("42 3.25 1e3 2.5E-2 0.5");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].type, TokenType::kInteger);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, 3.25);
  EXPECT_DOUBLE_EQ(tokens[2].double_value, 1000.0);
  EXPECT_DOUBLE_EQ(tokens[3].double_value, 0.025);
  EXPECT_DOUBLE_EQ(tokens[4].double_value, 0.5);
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = MustTokenize("'hello' 'it''s' ''");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].str_value, "hello");
  EXPECT_EQ(tokens[1].str_value, "it's");
  EXPECT_EQ(tokens[2].str_value, "");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, MultiCharOperators) {
  auto tokens = MustTokenize("<= >= <> != < > =");
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_TRUE(tokens[0].IsSymbol("<="));
  EXPECT_TRUE(tokens[1].IsSymbol(">="));
  EXPECT_TRUE(tokens[2].IsSymbol("<>"));
  EXPECT_TRUE(tokens[3].IsSymbol("<>"));  // != normalizes to <>
  EXPECT_TRUE(tokens[4].IsSymbol("<"));
  EXPECT_TRUE(tokens[5].IsSymbol(">"));
  EXPECT_TRUE(tokens[6].IsSymbol("="));
}

TEST(LexerTest, LineCommentsSkipped) {
  auto tokens = MustTokenize("select -- everything here is ignored\n 1");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_TRUE(tokens[0].IsKeyword("select"));
  EXPECT_EQ(tokens[1].int_value, 1);
}

TEST(LexerTest, IsSelectStatementReadsTheFirstToken) {
  EXPECT_TRUE(IsSelectStatement("SELECT 1"));
  EXPECT_TRUE(IsSelectStatement("select*from t"));
  EXPECT_TRUE(IsSelectStatement("\n  SeLeCt a FROM t"));
  EXPECT_TRUE(IsSelectStatement("-- why\n  -- again\nSELECT a FROM t"));
  EXPECT_TRUE(IsSelectStatement("select"));
  EXPECT_FALSE(IsSelectStatement("selection FROM t"));
  EXPECT_FALSE(IsSelectStatement("select_list"));
  EXPECT_FALSE(IsSelectStatement("INSERT INTO t SELECT 1"));
  EXPECT_FALSE(IsSelectStatement("-- SELECT\nDELETE FROM t"));
  EXPECT_FALSE(IsSelectStatement("  sel"));
  EXPECT_FALSE(IsSelectStatement(""));
}

TEST(LexerTest, UnexpectedCharacterFails) {
  EXPECT_FALSE(Tokenize("select @foo").ok());
  EXPECT_FALSE(Tokenize("#").ok());
}

TEST(LexerTest, PositionsRecorded) {
  auto tokens = MustTokenize("select x");
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].position, 7u);
}

}  // namespace
}  // namespace imon::sql
