// SQL tokenizer. Case-insensitive keywords; identifiers lower-cased;
// single-quoted strings with '' escaping.

#ifndef IMON_SQL_LEXER_H_
#define IMON_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace imon::sql {

enum class TokenType {
  kIdentifier,
  kKeyword,   // text holds the lower-cased keyword
  kInteger,
  kFloat,
  kString,
  kSymbol,    // text holds the symbol: ( ) , . ; * = <> != < <= > >= + - / %
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;     // identifier/keyword/symbol text (lower-cased)
  int64_t int_value = 0;
  double double_value = 0;
  std::string str_value;  // string literal payload (original case)
  size_t position = 0;    // byte offset in the input, for error messages

  bool IsKeyword(const char* kw) const {
    return type == TokenType::kKeyword && text == kw;
  }
  bool IsSymbol(const char* sym) const {
    return type == TokenType::kSymbol && text == sym;
  }
};

/// Tokenize `input`; the final token is always kEnd.
Result<std::vector<Token>> Tokenize(const std::string& input);

/// True when the first token of `text` is the keyword SELECT (leading
/// whitespace and `--` comments skipped, as Tokenize skips them).
bool IsSelectStatement(std::string_view text);

}  // namespace imon::sql

#endif  // IMON_SQL_LEXER_H_
