// Runtime SQL value: a tagged union of NULL / BOOL / INT64 / DOUBLE / STRING
// in 24 bytes.
//
// Layout: byte 0 is the type, byte 1 a string's inline length (kOnHeap for
// a string on the heap). A string of up to kInlineCapacity (22) bytes sits
// inline in bytes 2..23 and allocates nothing. A BOOL, INT64 or DOUBLE
// keeps its 8-byte payload at offset 8; a longer string keeps the pointer
// to one owned heap block there and its length at offset 16. A copy
// duplicates the block, a move steals it and the destructor frees it.
//
// A view from string_value() is valid while its Value lives and is neither
// assigned nor moved from: an inline string moves with its Value.
//
// Comparison semantics: Value::Compare gives a total order used by sorting,
// hashing and DISTINCT, in which NULL sorts first and equals itself. SQL
// three-valued comparison (where NULL op x -> unknown) lives in the
// expression evaluator, not here.
#ifndef DECORR_COMMON_VALUE_H_
#define DECORR_COMMON_VALUE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "decorr/common/types.h"

namespace decorr {

class Value {
 public:
  // The longest string held inline.
  static constexpr size_t kInlineCapacity = 22;

  Value() : rep_{TypeId::kNull, 0, {}} {}
  Value(const Value& other) : rep_(other.rep_) {
    if (on_heap()) CopyHeap(other);
  }
  Value(Value&& other) noexcept : rep_(other.rep_) {
    other.rep_.size = 0;  // the source no longer owns a heap block
  }
  Value& operator=(const Value& other) {
    if (this != &other) {
      if (on_heap()) FreeHeap();
      rep_ = other.rep_;
      if (on_heap()) CopyHeap(other);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      if (on_heap()) FreeHeap();
      rep_ = other.rep_;
      other.rep_.size = 0;
    }
    return *this;
  }
  ~Value() {
    if (on_heap()) FreeHeap();
  }

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Word(TypeId::kBool, v ? 1 : 0); }
  static Value Int64(int64_t v) { return Word(TypeId::kInt64, v); }
  static Value Double(double v) {
    return Word(TypeId::kDouble, std::bit_cast<int64_t>(v));
  }
  static Value String(std::string_view v) {
    Value out;
    out.rep_.type = TypeId::kString;
    if (v.size() > kInlineCapacity) {
      out.AllocHeap(v);
    } else {
      out.rep_.size = static_cast<uint8_t>(v.size());
      if (!v.empty()) std::memcpy(out.rep_.bytes, v.data(), v.size());
    }
    return out;
  }

  TypeId type() const { return rep_.type; }
  bool is_null() const { return rep_.type == TypeId::kNull; }

  // Typed accessors. Calling the wrong accessor is a programming error;
  // string_value() of a non-STRING is empty.
  bool bool_value() const { return word() != 0; }
  int64_t int64_value() const { return word(); }
  double double_value() const { return std::bit_cast<double>(word()); }
  std::string_view string_value() const {
    if (on_heap()) return {heap_data(), heap_size()};
    return {rep_.bytes, rep_.size};
  }
  // The bytes this value owns outside itself: a heap string's length, else
  // 0. Memory charges count sizeof(Value) plus these.
  size_t heap_bytes() const { return on_heap() ? heap_size() : 0; }

  // Numeric view: INT64 widened to double. Only valid for numeric types.
  double AsDouble() const {
    return rep_.type == TypeId::kDouble ? double_value()
                                        : static_cast<double>(word());
  }

  // Total-order comparison (NULL < everything, NULL == NULL). Numeric types
  // compare by value across INT64/DOUBLE. Returns <0, 0, >0.
  // Comparing STRING against a numeric (or BOOL against non-BOOL) falls back
  // to comparing type ids; the binder prevents such comparisons in queries.
  int Compare(const Value& other) const;

  // Value equality under the total order (NULL == NULL is true). Two
  // INT64s, the common hash-key case, skip the general comparison.
  bool Equals(const Value& other) const {
    if (rep_.type == TypeId::kInt64 && other.rep_.type == TypeId::kInt64) {
      return word() == other.word();
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
  static constexpr uint8_t kOnHeap = 0xff;  // Rep::size of a heap string
  static constexpr size_t kWordAt = 6;      // Rep::bytes offset of byte 8
  static constexpr size_t kHeapSizeAt = 14;  // Rep::bytes offset of byte 16

  // Plain bytes, so a copy or move of the non-heap part is one 24-byte
  // struct copy.
  struct alignas(8) Rep {
    TypeId type;
    uint8_t size;  // inline string length, or kOnHeap
    char bytes[kInlineCapacity];
  };

  static Value Word(TypeId type, int64_t payload) {
    Value out;
    out.rep_.type = type;
    std::memcpy(out.rep_.bytes + kWordAt, &payload, sizeof(payload));
    return out;
  }
  int64_t word() const {
    int64_t v = 0;
    std::memcpy(&v, rep_.bytes + kWordAt, sizeof(v));
    return v;
  }
  bool on_heap() const { return rep_.size == kOnHeap; }
  const char* heap_data() const {
    const char* p = nullptr;
    std::memcpy(&p, rep_.bytes + kWordAt, sizeof(p));
    return p;
  }
  size_t heap_size() const {
    size_t n = 0;
    std::memcpy(&n, rep_.bytes + kHeapSizeAt, sizeof(n));
    return n;
  }
  // Out of line: the heap paths are rare, and keeping the allocator calls
  // out of every inlined copy and destructor keeps those small.
  void AllocHeap(std::string_view v);  // sets rep_.size = kOnHeap
  void CopyHeap(const Value& other);   // replaces the copied pointer
  void FreeHeap();                     // leaves rep_.size = 0

  Rep rep_;
};

static_assert(sizeof(Value) == 24);

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
