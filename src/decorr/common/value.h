// Runtime SQL value: a tagged union of NULL / BOOL / INT64 / DOUBLE / STRING.
//
// Comparison semantics: Value::Compare gives a total order used by sorting,
// hashing and DISTINCT, in which NULL sorts first and equals itself. SQL
// three-valued comparison (where NULL op x -> unknown) lives in the
// expression evaluator, not here.
#ifndef DECORR_COMMON_VALUE_H_
#define DECORR_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "decorr/common/types.h"

namespace decorr {

class Value {
 public:
  Value() : type_(TypeId::kNull), i64_(0) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) {
    Value out;
    out.type_ = TypeId::kBool;
    out.i64_ = v ? 1 : 0;
    return out;
  }
  static Value Int64(int64_t v) {
    Value out;
    out.type_ = TypeId::kInt64;
    out.i64_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type_ = TypeId::kDouble;
    out.dbl_ = v;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.type_ = TypeId::kString;
    out.str_ = std::move(v);
    return out;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  // Typed accessors. Calling the wrong accessor is a programming error
  // (checked in debug builds via assert-like behaviour in GetXxx).
  bool bool_value() const { return i64_ != 0; }
  int64_t int64_value() const { return i64_; }
  double double_value() const { return dbl_; }
  const std::string& string_value() const { return str_; }

  // Numeric view: INT64 widened to double. Only valid for numeric types.
  double AsDouble() const {
    return type_ == TypeId::kDouble ? dbl_ : static_cast<double>(i64_);
  }

  // Total-order comparison (NULL < everything, NULL == NULL). Numeric types
  // compare by value across INT64/DOUBLE. Returns <0, 0, >0.
  // Comparing STRING against a numeric (or BOOL against non-BOOL) falls back
  // to comparing type ids; the binder prevents such comparisons in queries.
  int Compare(const Value& other) const;

  // Value equality under the total order (NULL == NULL is true). Two
  // INT64s, the common hash-key case, skip the general comparison.
  bool Equals(const Value& other) const {
    if (type_ == TypeId::kInt64 && other.type_ == TypeId::kInt64) {
      return i64_ == other.i64_;
    }
    return Compare(other) == 0;
  }

  // Hash consistent with Equals (INT64 4 and DOUBLE 4.0 hash identically).
  size_t Hash() const;
  // Hash() of a non-NULL Value of each type, for callers that hash typed
  // column storage without building a Value.
  static size_t HashBool(bool v);
  static size_t HashInt64(int64_t v) {
    return HashDouble(static_cast<double>(v));
  }
  static size_t HashDouble(double v);
  static size_t HashString(std::string_view v);

  // SQL-ish rendering: NULL, TRUE, 42, 3.5, 'text'.
  std::string ToString() const;

 private:
  TypeId type_;
  // Union-like storage; str_ is empty unless type_ == kString.
  union {
    int64_t i64_;
    double dbl_;
  };
  std::string str_;
};

// A materialized tuple flowing between operators.
using Row = std::vector<Value>;

// Hash / equality functors for Row keys in hash tables.
struct RowHash {
  size_t operator()(const Row& row) const;
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

// Renders a row as "(v1, v2, ...)".
std::string RowToString(const Row& row);

}  // namespace decorr

#endif  // DECORR_COMMON_VALUE_H_
