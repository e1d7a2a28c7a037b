#include "decorr/common/value.h"

#include <cmath>
#include <cstdio>

#include "decorr/common/hash.h"

namespace decorr {

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  const bool self_num = type_ == TypeId::kInt64 || type_ == TypeId::kDouble;
  const bool other_num =
      other.type_ == TypeId::kInt64 || other.type_ == TypeId::kDouble;
  if (self_num && other_num) {
    if (type_ == TypeId::kInt64 && other.type_ == TypeId::kInt64) {
      if (i64_ < other.i64_) return -1;
      return i64_ > other.i64_ ? 1 : 0;
    }
    const double a = AsDouble();
    const double b = other.AsDouble();
    if (a < b) return -1;
    return a > b ? 1 : 0;
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  switch (type_) {
    case TypeId::kBool: {
      const int a = i64_ != 0;
      const int b = other.i64_ != 0;
      return a - b;
    }
    case TypeId::kString: {
      const int c = str_.compare(other.str_);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

size_t Value::Hash() const {
  switch (type_) {
    case TypeId::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case TypeId::kBool:
      return HashBool(i64_ != 0);
    case TypeId::kInt64:
      return HashInt64(i64_);
    case TypeId::kDouble:
      return HashDouble(dbl_);
    case TypeId::kString:
      return HashString(str_);
  }
  return 0;
}

size_t Value::HashBool(bool v) {
  return HashCombine(1, static_cast<size_t>(v));
}

// INT64 hashes via double (HashInt64), so 4 and 4.0 collide: they compare
// equal.
size_t Value::HashDouble(double v) {
  return HashCombine(2, std::hash<double>()(v));
}

size_t Value::HashString(std::string_view v) {
  return HashCombine(3, std::hash<std::string_view>()(v));
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return i64_ ? "TRUE" : "FALSE";
    case TypeId::kInt64:
      return std::to_string(i64_);
    case TypeId::kDouble: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%g", dbl_);
      return buf;
    }
    case TypeId::kString:
      return "'" + str_ + "'";
  }
  return "?";
}

size_t RowHash::operator()(const Row& row) const {
  size_t seed = row.size();
  for (const Value& v : row) seed = HashCombine(seed, v.Hash());
  return seed;
}

bool RowEq::operator()(const Row& a, const Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].Equals(b[i])) return false;
  }
  return true;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace decorr
