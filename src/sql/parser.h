// Recursive-descent SQL parser producing ast.h statements.

#ifndef IMON_SQL_PARSER_H_
#define IMON_SQL_PARSER_H_

#include <string>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace imon::sql {

/// Parse one statement (optionally ;-terminated).
Result<StatementPtr> Parse(const std::string& sql);

/// Parse one statement and hand back the tokens it was parsed from in
/// `*tokens`, so the caller can take the statement's template fingerprint
/// (TemplateFingerprint, normalizer.h) without lexing the text again.
/// The caller decides from the parsed statement whether it needs one.
Result<StatementPtr> Parse(const std::string& sql, std::vector<Token>* tokens);

/// Parse a standalone scalar/boolean expression (used for programmatic
/// trigger and alert predicates).
Result<ExprPtr> ParseExpression(const std::string& text);

namespace internal {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<StatementPtr> ParseStatement();
  Result<ExprPtr> ParseExprPublic() { return ParseExpr(); }

  /// True when every token was consumed (trailing ';' allowed).
  bool AtEnd();

  /// The tokens, moved out once parsing is done.
  std::vector<Token> TakeTokens() { return std::move(tokens_); }

 private:
  const Token& Peek(size_t ahead = 0) const;
  Token Advance();
  bool MatchKeyword(const char* kw);
  bool MatchSymbol(const char* sym);
  Status ExpectKeyword(const char* kw);
  Status ExpectSymbol(const char* sym);
  Result<std::string> ExpectIdentifier(const char* what);
  Status ErrorHere(const std::string& message) const;

  Result<StatementPtr> ParseSelect();
  Result<StatementPtr> ParseInsert();
  Result<StatementPtr> ParseUpdate();
  Result<StatementPtr> ParseDelete();
  Result<StatementPtr> ParseCreate();
  Result<StatementPtr> ParseDrop();
  Result<StatementPtr> ParseModify();
  Result<StatementPtr> ParseAnalyze();
  Result<StatementPtr> ParseExplain();

  Result<TypeId> ParseType();

  // Expression precedence ladder (lowest to highest).
  Result<ExprPtr> ParseExpr();        // OR
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();  // = <> < <= > >= BETWEEN IN LIKE IS
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace internal
}  // namespace imon::sql

#endif  // IMON_SQL_PARSER_H_
