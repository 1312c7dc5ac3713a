#include "sql/lexer.h"

#include <cctype>
#include <unordered_set>

namespace imon::sql {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kw = {
      "select", "from",    "where",   "join",     "inner",    "on",
      "and",    "or",      "not",     "group",    "by",       "order",
      "having", "limit",   "asc",     "desc",     "distinct", "as",
      "insert", "into",    "values",  "update",   "set",      "delete",
      "create", "drop",    "table",   "index",    "unique",   "primary",
      "key",    "null",    "is",      "in",       "between",  "like",
      "int",    "integer", "bigint",  "double",   "float",    "real",
      "text",   "varchar", "char",    "modify",   "to",       "btree",
      "heap",   "hash",    "isam",    "analyze", "trigger", "after",    "when",     "raise",
      "explain","with",    "main_pages", "if",    "exists",   "true",
      "false",  "begin",   "commit",  "rollback",
  };
  return kw;
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Advances *i past whitespace and `--` comments (to end of line).
void SkipTrivia(std::string_view input, size_t* i) {
  const size_t n = input.size();
  while (*i < n) {
    if (std::isspace(static_cast<unsigned char>(input[*i]))) {
      ++*i;
    } else if (input[*i] == '-' && *i + 1 < n && input[*i + 1] == '-') {
      while (*i < n && input[*i] != '\n') ++*i;
    } else {
      return;
    }
  }
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  while (true) {
    SkipTrivia(input, &i);
    if (i >= n) break;
    char c = input[i];
    Token tok;
    tok.position = i;
    // -- identifiers / keywords
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && IsWordChar(input[i])) ++i;
      std::string word = ToLower(input.substr(start, i - start));
      tok.type = Keywords().count(word) ? TokenType::kKeyword
                                        : TokenType::kIdentifier;
      tok.text = std::move(word);
      tokens.push_back(std::move(tok));
      continue;
    }
    // -- numbers
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i < n && input[i] == '.') {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i])))
          ++i;
      }
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        is_float = true;
        ++i;
        if (i < n && (input[i] == '+' || input[i] == '-')) ++i;
        if (i >= n || !std::isdigit(static_cast<unsigned char>(input[i])))
          return Status::InvalidArgument("malformed exponent at position " +
                                         std::to_string(start));
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i])))
          ++i;
      }
      std::string num = input.substr(start, i - start);
      if (is_float) {
        tok.type = TokenType::kFloat;
        tok.double_value = std::stod(num);
      } else {
        tok.type = TokenType::kInteger;
        try {
          tok.int_value = std::stoll(num);
        } catch (...) {
          return Status::InvalidArgument("integer literal out of range: " +
                                         num);
        }
      }
      tok.text = std::move(num);
      tokens.push_back(std::move(tok));
      continue;
    }
    // -- string literals
    if (c == '\'') {
      ++i;
      std::string payload;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {
            payload.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        payload.push_back(input[i]);
        ++i;
      }
      if (!closed)
        return Status::InvalidArgument("unterminated string literal");
      tok.type = TokenType::kString;
      tok.str_value = std::move(payload);
      tokens.push_back(std::move(tok));
      continue;
    }
    // -- multi-char symbols
    auto two = [&](const char* sym) {
      tok.type = TokenType::kSymbol;
      tok.text = sym;
      tokens.push_back(tok);
      i += 2;
    };
    if (c == '<' && i + 1 < n && input[i + 1] == '=') {
      two("<=");
      continue;
    }
    if (c == '>' && i + 1 < n && input[i + 1] == '=') {
      two(">=");
      continue;
    }
    if (c == '<' && i + 1 < n && input[i + 1] == '>') {
      two("<>");
      continue;
    }
    if (c == '!' && i + 1 < n && input[i + 1] == '=') {
      tok.type = TokenType::kSymbol;
      tok.text = "<>";
      tokens.push_back(tok);
      i += 2;
      continue;
    }
    // -- single-char symbols
    static const std::string kSingles = "()*,.;=<>+-/%";
    if (kSingles.find(c) != std::string::npos) {
      tok.type = TokenType::kSymbol;
      tok.text = std::string(1, c);
      tokens.push_back(std::move(tok));
      ++i;
      continue;
    }
    return Status::InvalidArgument("unexpected character '" +
                                   std::string(1, c) + "' at position " +
                                   std::to_string(i));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(std::move(end));
  return tokens;
}

bool IsSelectStatement(std::string_view text) {
  constexpr std::string_view kSelect = "select";
  size_t i = 0;
  SkipTrivia(text, &i);
  if (text.size() - i < kSelect.size()) return false;
  for (char k : kSelect) {
    if (std::tolower(static_cast<unsigned char>(text[i++])) != k) return false;
  }
  return i == text.size() || !IsWordChar(text[i]);
}

}  // namespace imon::sql
