#include "common/value.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/hash.h"

namespace imon {

const char* TypeName(TypeId type) {
  switch (type) {
    case TypeId::kInt:
      return "INT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kText:
      return "TEXT";
  }
  return "?";
}

Result<Value> Value::CastTo(TypeId target) const {
  if (null_) return Value::Null(target);
  if (type_ == target) return *this;
  switch (target) {
    case TypeId::kInt:
      if (type_ == TypeId::kDouble)
        return Value::Int(static_cast<int64_t>(std::llround(double_)));
      try {
        size_t pos = 0;
        int64_t v = std::stoll(text_, &pos);
        if (pos != text_.size())
          return Status::InvalidArgument("cannot cast '" + text_ + "' to INT");
        return Value::Int(v);
      } catch (...) {
        return Status::InvalidArgument("cannot cast '" + text_ + "' to INT");
      }
    case TypeId::kDouble:
      if (type_ == TypeId::kInt) return Value::Double(static_cast<double>(int_));
      try {
        size_t pos = 0;
        double v = std::stod(text_, &pos);
        if (pos != text_.size())
          return Status::InvalidArgument("cannot cast '" + text_ +
                                         "' to DOUBLE");
        return Value::Double(v);
      } catch (...) {
        return Status::InvalidArgument("cannot cast '" + text_ + "' to DOUBLE");
      }
    case TypeId::kText: {
      if (type_ == TypeId::kInt) return Value::Text(std::to_string(int_));
      std::ostringstream os;
      os << double_;
      return Value::Text(os.str());
    }
  }
  return Status::Internal("bad cast target");
}

int Value::Compare(const Value& other) const {
  if (null_ || other.null_) {
    if (null_ && other.null_) return 0;
    return null_ ? -1 : 1;
  }
  const bool self_num = type_ != TypeId::kText;
  const bool other_num = other.type_ != TypeId::kText;
  if (self_num != other_num) return self_num ? -1 : 1;  // numbers before text
  if (!self_num) return text_.compare(other.text_) < 0   ? -1
                        : text_ == other.text_ ? 0
                                               : 1;
  if (type_ == TypeId::kInt && other.type_ == TypeId::kInt) {
    return int_ < other.int_ ? -1 : int_ == other.int_ ? 0 : 1;
  }
  const double a = AsDouble();
  const double b = other.AsDouble();
  return a < b ? -1 : a == b ? 0 : 1;
}

uint64_t Value::Hash() const {
  if (null_) return 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case TypeId::kInt: {
      // Hash ints through their double representation only when the value is
      // exactly representable, so Int(3) and Double(3.0) collide as equals do.
      double d = static_cast<double>(int_);
      if (static_cast<int64_t>(d) == int_) {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        return HashBytes(&bits, sizeof(bits));
      }
      return HashBytes(&int_, sizeof(int_));
    }
    case TypeId::kDouble: {
      double d = double_ == 0.0 ? 0.0 : double_;  // normalize -0.0
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return HashBytes(&bits, sizeof(bits));
    }
    case TypeId::kText:
      return HashBytes(text_.data(), text_.size());
  }
  return 0;
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case TypeId::kInt:
      return std::to_string(int_);
    case TypeId::kDouble: {
      std::ostringstream os;
      os << double_;
      return os.str();
    }
    case TypeId::kText:
      return "'" + text_ + "'";
  }
  return "?";
}

namespace {
void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}
uint64_t ReadU64(std::string_view data, size_t off) {
  uint64_t v;
  std::memcpy(&v, data.data() + off, 8);
  return v;
}
}  // namespace

void Value::SerializeTo(std::string* out) const {
  // Tag: low 2 bits type, bit 2 null flag.
  uint8_t tag = static_cast<uint8_t>(type_) | (null_ ? 0x4 : 0);
  out->push_back(static_cast<char>(tag));
  if (null_) return;
  switch (type_) {
    case TypeId::kInt:
      AppendU64(out, static_cast<uint64_t>(int_));
      break;
    case TypeId::kDouble: {
      uint64_t bits;
      std::memcpy(&bits, &double_, 8);
      AppendU64(out, bits);
      break;
    }
    case TypeId::kText:
      AppendU64(out, text_.size());
      out->append(text_);
      break;
  }
}

Result<Value> Value::DeserializeFrom(std::string_view data, size_t* offset) {
  Value v;
  IMON_RETURN_IF_ERROR(DeserializeInto(data, offset, &v));
  return v;
}

Status Value::DeserializeInto(std::string_view data, size_t* offset,
                              Value* out) {
  if (*offset >= data.size())
    return Status::Corruption("value: truncated tag");
  uint8_t tag = static_cast<uint8_t>(data[*offset]);
  *offset += 1;
  TypeId type = static_cast<TypeId>(tag & 0x3);
  out->type_ = type;
  if ((tag & 0x4) != 0) {
    out->null_ = true;
    return Status::OK();
  }
  out->null_ = false;
  switch (type) {
    case TypeId::kInt: {
      if (*offset + 8 > data.size())
        return Status::Corruption("value: truncated int");
      out->int_ = static_cast<int64_t>(ReadU64(data, *offset));
      *offset += 8;
      return Status::OK();
    }
    case TypeId::kDouble: {
      if (*offset + 8 > data.size())
        return Status::Corruption("value: truncated double");
      uint64_t bits = ReadU64(data, *offset);
      *offset += 8;
      std::memcpy(&out->double_, &bits, 8);
      return Status::OK();
    }
    case TypeId::kText: {
      if (*offset + 8 > data.size())
        return Status::Corruption("value: truncated text length");
      uint64_t len = ReadU64(data, *offset);
      *offset += 8;
      if (*offset + len > data.size())
        return Status::Corruption("value: truncated text payload");
      // assign() reuses the existing buffer when it has the capacity.
      out->text_.assign(data.data() + *offset, len);
      *offset += len;
      return Status::OK();
    }
  }
  return Status::Corruption("value: bad type tag");
}

void SerializeRow(const Row& row, std::string* out) {
  AppendU64(out, row.size());
  for (const Value& v : row) v.SerializeTo(out);
}

Result<Row> DeserializeRow(std::string_view data) {
  Row row;
  IMON_RETURN_IF_ERROR(DeserializeRowInto(data, &row));
  return row;
}

Status DeserializeRowInto(std::string_view data, Row* row) {
  if (data.size() < 8) return Status::Corruption("row: truncated header");
  uint64_t n = ReadU64(data, 0);
  // resize (not clear) keeps surviving Value slots — and their text
  // buffers' capacity — alive for in-place reuse.
  row->resize(n);
  size_t offset = 8;
  for (uint64_t i = 0; i < n; ++i) {
    IMON_RETURN_IF_ERROR(Value::DeserializeInto(data, &offset, &(*row)[i]));
  }
  return Status::OK();
}

std::string SqlLiteral(const Value& v) {
  if (v.is_null()) return "NULL";
  switch (v.type()) {
    case TypeId::kInt:
      return std::to_string(v.AsInt());
    case TypeId::kDouble: {
      std::ostringstream os;
      os.precision(17);
      os << v.AsDouble();
      std::string s = os.str();
      // Ensure the literal parses as a DOUBLE.
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case TypeId::kText: {
      std::string out = "'";
      for (char c : v.AsText()) {
        out.push_back(c);
        if (c == '\'') out.push_back('\'');
      }
      out.push_back('\'');
      return out;
    }
  }
  return "NULL";
}

void AppendSqlTuple(const Row& row, std::string* out, std::string_view first) {
  out->push_back('(');
  out->append(first);
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0 || !first.empty()) out->append(", ");
    out->append(SqlLiteral(row[i]));
  }
  out->push_back(')');
}

uint64_t HashRow(const Row& row) {
  uint64_t h = 14695981039346656037ULL;
  for (const Value& v : row) h = HashCombine(h, v.Hash());
  return h;
}

}  // namespace imon
