#include "sql/parser.h"

#include <cctype>

namespace imon::sql {

Result<StatementPtr> Parse(const std::string& sql) {
  std::vector<Token> tokens;
  return Parse(sql, &tokens);
}

Result<StatementPtr> Parse(const std::string& sql,
                           std::vector<Token>* tokens) {
  IMON_ASSIGN_OR_RETURN(std::vector<Token> lexed, Tokenize(sql));
  internal::Parser parser(std::move(lexed));
  IMON_ASSIGN_OR_RETURN(StatementPtr stmt, parser.ParseStatement());
  if (!parser.AtEnd())
    return Status::InvalidArgument("unexpected trailing tokens in statement");
  *tokens = parser.TakeTokens();
  return stmt;
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  IMON_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  internal::Parser parser(std::move(tokens));
  IMON_ASSIGN_OR_RETURN(ExprPtr expr, parser.ParseExprPublic());
  if (!parser.AtEnd())
    return Status::InvalidArgument("unexpected trailing tokens in expression");
  return expr;
}

namespace internal {

const Token& Parser::Peek(size_t ahead) const {
  size_t idx = pos_ + ahead;
  if (idx >= tokens_.size()) idx = tokens_.size() - 1;  // kEnd sentinel
  return tokens_[idx];
}

Token Parser::Advance() {
  Token t = Peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::MatchKeyword(const char* kw) {
  if (Peek().IsKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::MatchSymbol(const char* sym) {
  if (Peek().IsSymbol(sym)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::ExpectKeyword(const char* kw) {
  if (!MatchKeyword(kw))
    return ErrorHere(std::string("expected keyword '") + kw + "'");
  return Status::OK();
}

Status Parser::ExpectSymbol(const char* sym) {
  if (!MatchSymbol(sym))
    return ErrorHere(std::string("expected '") + sym + "'");
  return Status::OK();
}

namespace {
/// Keywords that may double as identifiers (column/table names) where the
/// grammar is unambiguous — e.g. the monitor's `hash` column.
bool IsNonReservedKeyword(const Token& t) {
  if (t.type != TokenType::kKeyword) return false;
  static const char* const kNonReserved[] = {"hash", "heap",  "btree",
                                             "key",  "after", "text",
                                             "isam"};
  for (const char* kw : kNonReserved) {
    if (t.text == kw) return true;
  }
  return false;
}
}  // namespace

Result<std::string> Parser::ExpectIdentifier(const char* what) {
  const Token& t = Peek();
  if (t.type == TokenType::kIdentifier || IsNonReservedKeyword(t)) {
    return Advance().text;
  }
  return ErrorHere(std::string("expected ") + what);
}

Status Parser::ErrorHere(const std::string& message) const {
  return Status::InvalidArgument(message + " at position " +
                                 std::to_string(Peek().position) +
                                 (Peek().type == TokenType::kEnd
                                      ? " (end of input)"
                                      : " near '" + Peek().text + "'"));
}

bool Parser::AtEnd() {
  MatchSymbol(";");
  return Peek().type == TokenType::kEnd;
}

Result<StatementPtr> Parser::ParseStatement() {
  const Token& t = Peek();
  if (t.IsKeyword("select")) return ParseSelect();
  if (t.IsKeyword("insert")) return ParseInsert();
  if (t.IsKeyword("update")) return ParseUpdate();
  if (t.IsKeyword("delete")) return ParseDelete();
  if (t.IsKeyword("create")) return ParseCreate();
  if (t.IsKeyword("drop")) return ParseDrop();
  if (t.IsKeyword("modify")) return ParseModify();
  if (t.IsKeyword("analyze")) return ParseAnalyze();
  if (t.IsKeyword("explain")) return ParseExplain();
  if (t.IsKeyword("begin")) {
    Advance();
    return StatementPtr(std::make_unique<BeginStmt>());
  }
  if (t.IsKeyword("commit")) {
    Advance();
    return StatementPtr(std::make_unique<CommitStmt>());
  }
  if (t.IsKeyword("rollback")) {
    Advance();
    return StatementPtr(std::make_unique<RollbackStmt>());
  }
  return ErrorHere("expected a statement");
}

Result<StatementPtr> Parser::ParseSelect() {
  IMON_RETURN_IF_ERROR(ExpectKeyword("select"));
  auto stmt = std::make_unique<SelectStmt>();
  stmt->distinct = MatchKeyword("distinct");

  // Select list.
  do {
    SelectItem item;
    if (Peek().IsSymbol("*")) {
      Advance();
      item.is_star = true;
    } else {
      IMON_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("as")) {
        IMON_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("output alias"));
      } else if (Peek().type == TokenType::kIdentifier) {
        item.alias = Advance().text;
      }
    }
    stmt->items.push_back(std::move(item));
  } while (MatchSymbol(","));

  // FROM
  IMON_RETURN_IF_ERROR(ExpectKeyword("from"));
  auto parse_table_ref = [&]() -> Result<TableRef> {
    TableRef ref;
    IMON_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier("table name"));
    if (MatchKeyword("as")) {
      IMON_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("table alias"));
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = Advance().text;
    }
    return ref;
  };
  {
    IMON_ASSIGN_OR_RETURN(TableRef first, parse_table_ref());
    stmt->from.push_back(std::move(first));
  }
  std::vector<ExprPtr> conjuncts;
  while (true) {
    if (MatchSymbol(",")) {
      IMON_ASSIGN_OR_RETURN(TableRef ref, parse_table_ref());
      stmt->from.push_back(std::move(ref));
      continue;
    }
    bool is_join = false;
    if (Peek().IsKeyword("join")) {
      is_join = true;
      Advance();
    } else if (Peek().IsKeyword("inner") && Peek(1).IsKeyword("join")) {
      Advance();
      Advance();
      is_join = true;
    }
    if (!is_join) break;
    IMON_ASSIGN_OR_RETURN(TableRef ref, parse_table_ref());
    stmt->from.push_back(std::move(ref));
    IMON_RETURN_IF_ERROR(ExpectKeyword("on"));
    IMON_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
    conjuncts.push_back(std::move(cond));
  }

  // WHERE
  if (MatchKeyword("where")) {
    IMON_ASSIGN_OR_RETURN(ExprPtr where, ParseExpr());
    conjuncts.push_back(std::move(where));
  }
  for (ExprPtr& c : conjuncts) {
    stmt->where = stmt->where
                      ? Expr::MakeBinary(BinaryOp::kAnd, std::move(stmt->where),
                                         std::move(c))
                      : std::move(c);
  }

  // GROUP BY
  if (MatchKeyword("group")) {
    IMON_RETURN_IF_ERROR(ExpectKeyword("by"));
    do {
      IMON_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
    } while (MatchSymbol(","));
  }

  // HAVING
  if (MatchKeyword("having")) {
    IMON_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }

  // ORDER BY
  if (MatchKeyword("order")) {
    IMON_RETURN_IF_ERROR(ExpectKeyword("by"));
    do {
      OrderItem item;
      IMON_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("desc")) {
        item.ascending = false;
      } else {
        MatchKeyword("asc");
      }
      stmt->order_by.push_back(std::move(item));
    } while (MatchSymbol(","));
  }

  // LIMIT
  if (MatchKeyword("limit")) {
    const Token& t = Peek();
    if (t.type != TokenType::kInteger)
      return ErrorHere("expected integer after LIMIT");
    stmt->limit = Advance().int_value;
  }

  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseInsert() {
  IMON_RETURN_IF_ERROR(ExpectKeyword("insert"));
  IMON_RETURN_IF_ERROR(ExpectKeyword("into"));
  auto stmt = std::make_unique<InsertStmt>();
  IMON_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  if (MatchSymbol("(")) {
    do {
      IMON_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      stmt->columns.push_back(std::move(col));
    } while (MatchSymbol(","));
    IMON_RETURN_IF_ERROR(ExpectSymbol(")"));
  }
  IMON_RETURN_IF_ERROR(ExpectKeyword("values"));
  do {
    IMON_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<ExprPtr> row;
    do {
      IMON_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      row.push_back(std::move(e));
    } while (MatchSymbol(","));
    IMON_RETURN_IF_ERROR(ExpectSymbol(")"));
    stmt->rows.push_back(std::move(row));
  } while (MatchSymbol(","));
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseUpdate() {
  IMON_RETURN_IF_ERROR(ExpectKeyword("update"));
  auto stmt = std::make_unique<UpdateStmt>();
  IMON_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  IMON_RETURN_IF_ERROR(ExpectKeyword("set"));
  do {
    IMON_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
    IMON_RETURN_IF_ERROR(ExpectSymbol("="));
    IMON_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
    stmt->assignments.emplace_back(std::move(col), std::move(value));
  } while (MatchSymbol(","));
  if (MatchKeyword("where")) {
    IMON_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseDelete() {
  IMON_RETURN_IF_ERROR(ExpectKeyword("delete"));
  IMON_RETURN_IF_ERROR(ExpectKeyword("from"));
  auto stmt = std::make_unique<DeleteStmt>();
  IMON_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  if (MatchKeyword("where")) {
    IMON_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return StatementPtr(std::move(stmt));
}

Result<TypeId> Parser::ParseType() {
  const Token& t = Peek();
  if (t.IsKeyword("int") || t.IsKeyword("integer") || t.IsKeyword("bigint")) {
    Advance();
    return TypeId::kInt;
  }
  if (t.IsKeyword("double") || t.IsKeyword("float") || t.IsKeyword("real")) {
    Advance();
    return TypeId::kDouble;
  }
  if (t.IsKeyword("text") || t.IsKeyword("varchar") || t.IsKeyword("char")) {
    Advance();
    // Optional length: VARCHAR(100) — accepted, ignored.
    if (MatchSymbol("(")) {
      if (Peek().type != TokenType::kInteger)
        return ErrorHere("expected length in type");
      Advance();
      IMON_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    return TypeId::kText;
  }
  return ErrorHere("expected a type name");
}

Result<StatementPtr> Parser::ParseCreate() {
  IMON_RETURN_IF_ERROR(ExpectKeyword("create"));
  if (MatchKeyword("table")) {
    auto stmt = std::make_unique<CreateTableStmt>();
    if (MatchKeyword("if")) {
      IMON_RETURN_IF_ERROR(ExpectKeyword("not"));
      IMON_RETURN_IF_ERROR(ExpectKeyword("exists"));
      stmt->if_not_exists = true;
    }
    IMON_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    IMON_RETURN_IF_ERROR(ExpectSymbol("("));
    do {
      if (Peek().IsKeyword("primary")) {
        Advance();
        IMON_RETURN_IF_ERROR(ExpectKeyword("key"));
        IMON_RETURN_IF_ERROR(ExpectSymbol("("));
        do {
          IMON_ASSIGN_OR_RETURN(std::string col,
                                ExpectIdentifier("key column"));
          stmt->primary_key.push_back(std::move(col));
        } while (MatchSymbol(","));
        IMON_RETURN_IF_ERROR(ExpectSymbol(")"));
        continue;
      }
      ColumnDef def;
      IMON_ASSIGN_OR_RETURN(def.name, ExpectIdentifier("column name"));
      IMON_ASSIGN_OR_RETURN(def.type, ParseType());
      while (true) {
        if (MatchKeyword("not")) {
          IMON_RETURN_IF_ERROR(ExpectKeyword("null"));
          def.not_null = true;
          continue;
        }
        if (MatchKeyword("primary")) {
          IMON_RETURN_IF_ERROR(ExpectKeyword("key"));
          def.primary_key = true;
          def.not_null = true;
          continue;
        }
        break;
      }
      stmt->columns.push_back(std::move(def));
    } while (MatchSymbol(","));
    IMON_RETURN_IF_ERROR(ExpectSymbol(")"));
    if (MatchKeyword("with")) {
      IMON_RETURN_IF_ERROR(ExpectKeyword("main_pages"));
      IMON_RETURN_IF_ERROR(ExpectSymbol("="));
      if (Peek().type != TokenType::kInteger)
        return ErrorHere("expected integer for MAIN_PAGES");
      stmt->main_pages = static_cast<uint32_t>(Advance().int_value);
    }
    return StatementPtr(std::move(stmt));
  }
  if (Peek().IsKeyword("unique") || Peek().IsKeyword("index")) {
    auto stmt = std::make_unique<CreateIndexStmt>();
    stmt->unique = MatchKeyword("unique");
    IMON_RETURN_IF_ERROR(ExpectKeyword("index"));
    IMON_ASSIGN_OR_RETURN(stmt->index, ExpectIdentifier("index name"));
    IMON_RETURN_IF_ERROR(ExpectKeyword("on"));
    IMON_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    IMON_RETURN_IF_ERROR(ExpectSymbol("("));
    do {
      IMON_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      stmt->columns.push_back(std::move(col));
    } while (MatchSymbol(","));
    IMON_RETURN_IF_ERROR(ExpectSymbol(")"));
    return StatementPtr(std::move(stmt));
  }
  if (MatchKeyword("trigger")) {
    auto stmt = std::make_unique<CreateTriggerStmt>();
    IMON_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("trigger name"));
    IMON_RETURN_IF_ERROR(ExpectKeyword("after"));
    IMON_RETURN_IF_ERROR(ExpectKeyword("insert"));
    IMON_RETURN_IF_ERROR(ExpectKeyword("on"));
    IMON_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    IMON_RETURN_IF_ERROR(ExpectKeyword("when"));
    IMON_ASSIGN_OR_RETURN(stmt->when, ParseExpr());
    IMON_RETURN_IF_ERROR(ExpectKeyword("raise"));
    if (Peek().type != TokenType::kString)
      return ErrorHere("expected message string after RAISE");
    stmt->message = Advance().str_value;
    return StatementPtr(std::move(stmt));
  }
  return ErrorHere("expected TABLE, INDEX or TRIGGER after CREATE");
}

Result<StatementPtr> Parser::ParseDrop() {
  IMON_RETURN_IF_ERROR(ExpectKeyword("drop"));
  if (MatchKeyword("table")) {
    auto stmt = std::make_unique<DropTableStmt>();
    if (MatchKeyword("if")) {
      IMON_RETURN_IF_ERROR(ExpectKeyword("exists"));
      stmt->if_exists = true;
    }
    IMON_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    return StatementPtr(std::move(stmt));
  }
  if (MatchKeyword("index")) {
    auto stmt = std::make_unique<DropIndexStmt>();
    IMON_ASSIGN_OR_RETURN(stmt->index, ExpectIdentifier("index name"));
    return StatementPtr(std::move(stmt));
  }
  if (MatchKeyword("trigger")) {
    auto stmt = std::make_unique<DropTriggerStmt>();
    IMON_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("trigger name"));
    return StatementPtr(std::move(stmt));
  }
  return ErrorHere("expected TABLE, INDEX or TRIGGER after DROP");
}

Result<StatementPtr> Parser::ParseModify() {
  IMON_RETURN_IF_ERROR(ExpectKeyword("modify"));
  auto stmt = std::make_unique<ModifyStmt>();
  IMON_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  IMON_RETURN_IF_ERROR(ExpectKeyword("to"));
  if (MatchKeyword("btree")) {
    stmt->target = TargetStructure::kBtree;
  } else if (MatchKeyword("heap")) {
    stmt->target = TargetStructure::kHeap;
  } else if (MatchKeyword("hash")) {
    stmt->target = TargetStructure::kHash;
  } else if (MatchKeyword("isam")) {
    stmt->target = TargetStructure::kIsam;
  } else {
    return ErrorHere("expected BTREE, HEAP, HASH or ISAM");
  }
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseAnalyze() {
  IMON_RETURN_IF_ERROR(ExpectKeyword("analyze"));
  auto stmt = std::make_unique<AnalyzeStmt>();
  IMON_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
  if (MatchSymbol("(")) {
    do {
      IMON_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      stmt->columns.push_back(std::move(col));
    } while (MatchSymbol(","));
    IMON_RETURN_IF_ERROR(ExpectSymbol(")"));
  }
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseExplain() {
  IMON_RETURN_IF_ERROR(ExpectKeyword("explain"));
  auto stmt = std::make_unique<ExplainStmt>();
  IMON_ASSIGN_OR_RETURN(stmt->inner, ParseSelect());
  return StatementPtr(std::move(stmt));
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Result<ExprPtr> Parser::ParseExpr() {
  IMON_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (MatchKeyword("or")) {
    IMON_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    lhs = Expr::MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAnd() {
  IMON_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
  while (MatchKeyword("and")) {
    IMON_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
    lhs = Expr::MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseNot() {
  if (MatchKeyword("not")) {
    IMON_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
    return Expr::MakeUnary(UnaryOp::kNot, std::move(operand));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  IMON_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());

  // IS [NOT] NULL
  if (MatchKeyword("is")) {
    bool negated = MatchKeyword("not");
    IMON_RETURN_IF_ERROR(ExpectKeyword("null"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kIsNull;
    e->lhs = std::move(lhs);
    e->negated = negated;
    return ExprPtr(std::move(e));
  }

  bool negated = false;
  if (Peek().IsKeyword("not") && (Peek(1).IsKeyword("between") ||
                                  Peek(1).IsKeyword("in") ||
                                  Peek(1).IsKeyword("like"))) {
    Advance();
    negated = true;
  }

  if (MatchKeyword("between")) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kBetween;
    e->lhs = std::move(lhs);
    e->negated = negated;
    IMON_ASSIGN_OR_RETURN(e->low, ParseAdditive());
    IMON_RETURN_IF_ERROR(ExpectKeyword("and"));
    IMON_ASSIGN_OR_RETURN(e->high, ParseAdditive());
    return ExprPtr(std::move(e));
  }

  if (MatchKeyword("in")) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kInList;
    e->lhs = std::move(lhs);
    e->negated = negated;
    IMON_RETURN_IF_ERROR(ExpectSymbol("("));
    do {
      IMON_ASSIGN_OR_RETURN(ExprPtr item, ParseAdditive());
      e->in_list.push_back(std::move(item));
    } while (MatchSymbol(","));
    IMON_RETURN_IF_ERROR(ExpectSymbol(")"));
    return ExprPtr(std::move(e));
  }

  if (MatchKeyword("like")) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kLike;
    e->lhs = std::move(lhs);
    e->negated = negated;
    if (Peek().type != TokenType::kString)
      return ErrorHere("expected pattern string after LIKE");
    e->like_pattern = Advance().str_value;
    return ExprPtr(std::move(e));
  }

  struct OpMap {
    const char* sym;
    BinaryOp op;
  };
  static const OpMap kOps[] = {{"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe},
                               {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe},
                               {"<", BinaryOp::kLt},  {">", BinaryOp::kGt}};
  for (const OpMap& m : kOps) {
    if (Peek().IsSymbol(m.sym)) {
      Advance();
      IMON_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      return Expr::MakeBinary(m.op, std::move(lhs), std::move(rhs));
    }
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAdditive() {
  IMON_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
  while (true) {
    BinaryOp op;
    if (Peek().IsSymbol("+")) {
      op = BinaryOp::kAdd;
    } else if (Peek().IsSymbol("-")) {
      op = BinaryOp::kSub;
    } else {
      break;
    }
    Advance();
    IMON_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
    lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  IMON_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  while (true) {
    BinaryOp op;
    if (Peek().IsSymbol("*")) {
      op = BinaryOp::kMul;
    } else if (Peek().IsSymbol("/")) {
      op = BinaryOp::kDiv;
    } else if (Peek().IsSymbol("%")) {
      op = BinaryOp::kMod;
    } else {
      break;
    }
    Advance();
    IMON_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
    lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseUnary() {
  if (MatchSymbol("-")) {
    IMON_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    // Fold negative literals immediately.
    if (operand->kind == ExprKind::kLiteral && !operand->literal.is_null()) {
      if (operand->literal.type() == TypeId::kInt)
        return Expr::MakeLiteral(Value::Int(-operand->literal.AsInt()));
      if (operand->literal.type() == TypeId::kDouble)
        return Expr::MakeLiteral(Value::Double(-operand->literal.AsDouble()));
    }
    return Expr::MakeUnary(UnaryOp::kNeg, std::move(operand));
  }
  MatchSymbol("+");
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kInteger: {
      Token tok = Advance();
      return Expr::MakeLiteral(Value::Int(tok.int_value));
    }
    case TokenType::kFloat: {
      Token tok = Advance();
      return Expr::MakeLiteral(Value::Double(tok.double_value));
    }
    case TokenType::kString: {
      Token tok = Advance();
      return Expr::MakeLiteral(Value::Text(tok.str_value));
    }
    case TokenType::kKeyword: {
      if (t.IsKeyword("null")) {
        Advance();
        return Expr::MakeLiteral(Value::Null());
      }
      if (t.IsKeyword("true")) {
        Advance();
        return Expr::MakeLiteral(Value::Int(1));
      }
      if (t.IsKeyword("false")) {
        Advance();
        return Expr::MakeLiteral(Value::Int(0));
      }
      if (IsNonReservedKeyword(t)) break;  // falls into identifier handling
      return ErrorHere("unexpected keyword in expression");
    }
    case TokenType::kSymbol: {
      if (t.IsSymbol("(")) {
        Advance();
        IMON_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        IMON_RETURN_IF_ERROR(ExpectSymbol(")"));
        return inner;
      }
      return ErrorHere("unexpected symbol in expression");
    }
    case TokenType::kIdentifier:
      break;  // identifier handling below
    case TokenType::kEnd:
      return ErrorHere("unexpected end of input in expression");
  }

  // Identifier (or non-reserved keyword acting as one).
  Token first = Advance();
  // Function call?
  if (Peek().IsSymbol("(")) {
    Advance();
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kFuncCall;
    e->func_name = first.text;
    if (Peek().IsSymbol("*")) {
      Advance();
      e->args.push_back(Expr::MakeStar());
    } else if (!Peek().IsSymbol(")")) {
      do {
        IMON_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        e->args.push_back(std::move(arg));
      } while (MatchSymbol(","));
    }
    IMON_RETURN_IF_ERROR(ExpectSymbol(")"));
    return ExprPtr(std::move(e));
  }
  // Qualified column?
  if (Peek().IsSymbol(".")) {
    Advance();
    IMON_ASSIGN_OR_RETURN(std::string col,
                          ExpectIdentifier("column name after '.'"));
    return Expr::MakeColumn(first.text, std::move(col));
  }
  return Expr::MakeColumn("", first.text);
}

}  // namespace internal
}  // namespace imon::sql
