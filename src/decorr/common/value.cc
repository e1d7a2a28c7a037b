#include "decorr/common/value.h"

#include <cmath>
#include <cstdio>

#include "decorr/common/hash.h"

namespace decorr {

void Value::AllocHeap(std::string_view v) {
  const size_t n = v.size();
  char* data = new char[n];
  std::memcpy(data, v.data(), n);
  rep_.size = kOnHeap;
  std::memcpy(rep_.bytes + kWordAt, &data, sizeof(data));
  std::memcpy(rep_.bytes + kHeapSizeAt, &n, sizeof(n));
}

void Value::CopyHeap(const Value& other) {
  rep_.size = 0;  // owns nothing until the allocation succeeds
  AllocHeap(other.string_value());
}

void Value::FreeHeap() {
  delete[] heap_data();
  rep_.size = 0;
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  const bool self_num = type() == TypeId::kInt64 || type() == TypeId::kDouble;
  const bool other_num =
      other.type() == TypeId::kInt64 || other.type() == TypeId::kDouble;
  if (self_num && other_num) {
    if (type() == TypeId::kInt64 && other.type() == TypeId::kInt64) {
      const int64_t a = word();
      const int64_t b = other.word();
      if (a < b) return -1;
      return a > b ? 1 : 0;
    }
    const double a = AsDouble();
    const double b = other.AsDouble();
    if (a < b) return -1;
    return a > b ? 1 : 0;
  }
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  switch (type()) {
    case TypeId::kBool: {
      const int a = bool_value();
      const int b = other.bool_value();
      return a - b;
    }
    case TypeId::kString: {
      const int c = string_value().compare(other.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

size_t Value::Hash() const {
  switch (type()) {
    case TypeId::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case TypeId::kBool:
      return HashBool(bool_value());
    case TypeId::kInt64:
      return HashInt64(word());
    case TypeId::kDouble:
      return HashDouble(double_value());
    case TypeId::kString:
      return HashString(string_value());
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
  switch (rep_.type) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case TypeId::kInt64:
      return std::to_string(word());
    case TypeId::kDouble: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%g", double_value());
      return buf;
    }
    case TypeId::kString: {
      const std::string_view s = string_value();
      std::string out;
      out.reserve(s.size() + 2);
      out += '\'';
      out += s;
      out += '\'';
      return out;
    }
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
