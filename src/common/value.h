// Runtime value representation shared by all layers: catalog statistics,
// SQL literals, executor tuples, monitor/IMA rows.

#ifndef IMON_COMMON_VALUE_H_
#define IMON_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace imon {

/// SQL column types supported by the engine.
enum class TypeId : uint8_t {
  kInt = 0,     ///< 64-bit signed integer (INT/INTEGER/BIGINT)
  kDouble = 1,  ///< 64-bit IEEE float (DOUBLE/FLOAT/REAL)
  kText = 2,    ///< variable-length string (TEXT/VARCHAR/CHAR)
};

const char* TypeName(TypeId type);

/// A single SQL value: one of the supported types, or NULL.
///
/// Values are small (inline int/double, heap string) and compare with SQL
/// semantics except that NULL ordering is total (NULL sorts first) so Value
/// can key ordered containers; predicate evaluation handles SQL three-valued
/// logic above this layer.
class Value {
 public:
  /// NULL of unspecified type.
  Value() : type_(TypeId::kInt), null_(true), int_(0), double_(0) {}

  static Value Null(TypeId type = TypeId::kInt) {
    Value v;
    v.type_ = type;
    return v;
  }
  static Value Int(int64_t v) {
    Value out;
    out.null_ = false;
    out.type_ = TypeId::kInt;
    out.int_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.null_ = false;
    out.type_ = TypeId::kDouble;
    out.double_ = v;
    return out;
  }
  static Value Text(std::string v) {
    Value out;
    out.null_ = false;
    out.type_ = TypeId::kText;
    out.text_ = std::move(v);
    return out;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return null_; }

  int64_t AsInt() const { return int_; }
  double AsDouble() const {
    return type_ == TypeId::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& AsText() const { return text_; }

  /// Cast to the given type. Int<->Double convert numerically; Text parses /
  /// formats. Returns InvalidArgument on unparsable text.
  Result<Value> CastTo(TypeId target) const;

  /// Total order: NULL < everything; numeric types compare numerically
  /// across kInt/kDouble; comparing text with numeric compares type tags.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  bool operator<=(const Value& o) const { return Compare(o) <= 0; }
  bool operator>(const Value& o) const { return Compare(o) > 0; }
  bool operator>=(const Value& o) const { return Compare(o) >= 0; }

  /// Stable hash consistent with Compare()==0 for same-type values and for
  /// int/double values representing the same number.
  uint64_t Hash() const;

  /// SQL-literal-ish rendering ("NULL", 42, 4.25, 'text').
  std::string ToString() const;

  /// Binary serialization used by the storage layer (tag byte + payload).
  void SerializeTo(std::string* out) const;
  /// Deserialize starting at data[*offset]; advances *offset.
  static Result<Value> DeserializeFrom(std::string_view data, size_t* offset);
  /// In-place variant: decodes into *out, reusing its text buffer's
  /// capacity. The allocation-free steady state of batch scans depends
  /// on this (see DESIGN.md §10).
  static Status DeserializeInto(std::string_view data, size_t* offset,
                                Value* out);

 private:
  TypeId type_;
  bool null_;
  int64_t int_;
  double double_;
  std::string text_;
};

/// A tuple of values; layout defined by the owning schema.
using Row = std::vector<Value>;

/// Serialize a whole row (column count + values).
void SerializeRow(const Row& row, std::string* out);
/// string_view input lets storage scans decode straight out of a pinned
/// page with no intermediate std::string copy.
Result<Row> DeserializeRow(std::string_view data);
/// In-place variant reusing `row`'s capacity across a batch of rows.
Status DeserializeRowInto(std::string_view data, Row* row);

/// `v` as a SQL literal that parses back to the same value: NULL, an
/// integer, a number with a `.` or exponent for a DOUBLE, or quoted text
/// with `'` doubled.
std::string SqlLiteral(const Value& v);

/// Hash of all values in a row (for hash joins / aggregation keys).
uint64_t HashRow(const Row& row);

}  // namespace imon

#endif  // IMON_COMMON_VALUE_H_
