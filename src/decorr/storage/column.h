// Typed column storage for in-memory tables. Values are stored in a typed
// vector plus a null map, so numeric scans avoid materializing Value
// objects on the hot path. A column without NULLs has no null map.
#ifndef DECORR_STORAGE_COLUMN_H_
#define DECORR_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "decorr/common/value.h"

namespace decorr {

class Column {
 public:
  explicit Column(TypeId type) : type_(type) {}

  TypeId type() const { return type_; }
  size_t size() const { return size_; }

  // Appends a value; NULLs are recorded in the null map, which the first
  // NULL creates. The value must be implicitly coercible to this column's
  // type (INT64 literals may be appended to DOUBLE columns).
  void Append(const Value& v);

  // True once some row is NULL. Loops over many rows test it once and then
  // skip IsNull for a column that has none.
  bool has_nulls() const { return !nulls_.empty(); }
  bool IsNull(size_t row) const { return has_nulls() && nulls_[row] != 0; }

  // Raw typed accessors — only meaningful when !IsNull(row) and the column
  // has the matching type. Used by fused scan predicates.
  int64_t Int64At(size_t row) const { return i64_[row]; }
  double DoubleAt(size_t row) const { return dbl_[row]; }
  const std::string& StringAt(size_t row) const { return str_[row]; }
  bool BoolAt(size_t row) const { return i64_[row] != 0; }

  // Materializes a Value, copying a string's stored bytes straight into
  // it. Inline: access paths call it for every projected cell of every row
  // they return.
  Value GetValue(size_t row) const {
    if (IsNull(row)) return Value::Null();
    switch (type_) {
      case TypeId::kBool: return Value::Bool(i64_[row] != 0);
      case TypeId::kInt64: return Value::Int64(i64_[row]);
      case TypeId::kDouble: return Value::Double(dbl_[row]);
      case TypeId::kString: return Value::String(str_[row]);
      default: return Value::Null();
    }
  }

 private:
  TypeId type_;
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;      // one byte per row; empty until a NULL
  std::vector<int64_t> i64_;        // BOOL / INT64 payloads
  std::vector<double> dbl_;         // DOUBLE payloads
  std::vector<std::string> str_;    // STRING payloads
};

}  // namespace decorr

#endif  // DECORR_STORAGE_COLUMN_H_
