#include "exec/expression_eval.h"

#include <cstdint>
#include <limits>

namespace imon::exec {

using sql::BinaryOp;

namespace {

Status OutOfRange() { return Status::InvalidArgument("integer out of range"); }

/// Integer arithmetic: overflow and INT64_MIN / -1 are errors, not UB.
Status IntArithmetic(BinaryOp op, int64_t a, int64_t b, Value* out) {
  int64_t v = 0;
  switch (op) {
    case BinaryOp::kAdd:
      if (__builtin_add_overflow(a, b, &v)) return OutOfRange();
      break;
    case BinaryOp::kSub:
      if (__builtin_sub_overflow(a, b, &v)) return OutOfRange();
      break;
    case BinaryOp::kMul:
      if (__builtin_mul_overflow(a, b, &v)) return OutOfRange();
      break;
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      // SQL: division by zero yields NULL; integer division truncates
      // (PostgreSQL semantics).
      if (b == 0) {
        *out = Value::Null();
        return Status::OK();
      }
      if (a == std::numeric_limits<int64_t>::min() && b == -1) {
        return OutOfRange();
      }
      v = op == BinaryOp::kDiv ? a / b : a % b;
      break;
    default:
      return Status::Internal("not an arithmetic op");
  }
  *out = Value::Int(v);
  return Status::OK();
}

}  // namespace

int CompareSql(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return -2;
  return a.Compare(b);
}

Status ArithmeticOp(BinaryOp op, const Value& l, const Value& r, Value* out) {
  if (l.is_null() || r.is_null()) {
    *out = Value::Null();
    return Status::OK();
  }
  if (l.type() == TypeId::kText || r.type() == TypeId::kText) {
    if (op == BinaryOp::kAdd && l.type() == TypeId::kText &&
        r.type() == TypeId::kText) {
      *out = Value::Text(l.AsText() + r.AsText());  // '+' concatenates text
      return Status::OK();
    }
    return Status::InvalidArgument("arithmetic on text value");
  }
  if (l.type() == TypeId::kInt && r.type() == TypeId::kInt) {
    return IntArithmetic(op, l.AsInt(), r.AsInt(), out);
  }
  const double a = l.AsDouble();
  const double b = r.AsDouble();
  switch (op) {
    case BinaryOp::kAdd:
      *out = Value::Double(a + b);
      return Status::OK();
    case BinaryOp::kSub:
      *out = Value::Double(a - b);
      return Status::OK();
    case BinaryOp::kMul:
      *out = Value::Double(a * b);
      return Status::OK();
    case BinaryOp::kDiv:
      // SQL: division by zero yields NULL.
      *out = b == 0.0 ? Value::Null() : Value::Double(a / b);
      return Status::OK();
    case BinaryOp::kMod:
      return Status::InvalidArgument("'%' requires integer operands");
    default:
      return Status::Internal("not an arithmetic op");
  }
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative glob match with backtracking on '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace imon::exec
